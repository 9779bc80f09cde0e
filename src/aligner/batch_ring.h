#ifndef SEEDEX_ALIGNER_BATCH_RING_H
#define SEEDEX_ALIGNER_BATCH_RING_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "aligner/chaining.h"
#include "aligner/sam.h"

namespace seedex {

/**
 * The producer→consumer hand-off of Fig. 12 (§V-B), rebuilt at batch
 * granularity:
 *
 *  - SeededBatch / BatchPool: a slab of seeded reads recycled through a
 *    free list, so the chains / reverse complements / seed counts a
 *    producer writes are reused run-long instead of reallocated per read
 *    (the DpWorkspace arena discipline applied to the queue payload).
 *  - BatchRing: a bounded ring of batch-slot pointers. Producers publish
 *    a whole batch with one lock acquisition and at most one notify;
 *    consumers claim a whole batch the same way — lock and wakeup
 *    traffic drops by the batch factor vs the per-read deque this
 *    replaces. Optional sharding (one sub-ring per producer group)
 *    removes the last shared cache line at high thread counts.
 *  - ReorderBuffer: sequence-stamped slots that stream finished batches
 *    out in input order incrementally, bounding result memory by the
 *    in-flight window instead of buffering and sorting the whole run.
 */

/** One seeded read inside a batch slab. Every field is recycled
 *  storage: the producer swaps a pulled read into `name`/`read`, and the
 *  grown capacity stays with the slab. */
struct SeededRead
{
    size_t read_idx = 0;
    std::string name;
    Sequence read;
    /** Filled only when a kept chain is reverse. */
    Sequence reverse_complement;
    /** Recycled chain storage; the first n_chains entries are live
     *  (chainSeedsInto's contract), the rest spare capacity. */
    std::vector<Chain> chains;
    size_t n_chains = 0;
    /** Seeds collected by the producer (provenance ledger). */
    uint32_t n_seeds = 0;
};

/** A fixed-capacity slab of seeded reads published as one unit. */
struct SeededBatch
{
    /** Dense batch sequence number (the order reads were pulled in):
     *  the reorder key. */
    uint64_t seq = 0;
    /** Index of the first read in this batch. */
    size_t base = 0;
    /** Slab storage; the first n_items entries are live. */
    std::vector<SeededRead> items;
    size_t n_items = 0;

    /** Grow the slab to `capacity` reads (idempotent) and mark empty. */
    void
    prepare(size_t capacity)
    {
        if (items.size() < capacity)
            items.resize(capacity);
        n_items = 0;
    }
};

/**
 * Free list of batch slabs. A released batch keeps every item's grown
 * storage, so after one warm-up cycle acquire() always hits the free
 * list and the producer loop allocates nothing. Instrumented as
 * `threaded.pool.{hits,misses}`.
 */
class BatchPool
{
  public:
    /** `expected_batches` sizes the free list (in-flight bound, so the
     *  list itself never regrows); `batch_capacity` sizes each slab. */
    BatchPool(size_t expected_batches, size_t batch_capacity);

    /** A prepared (empty, capacity-sized) batch: recycled when the free
     *  list has one, freshly allocated otherwise. */
    SeededBatch *acquire();

    /** Return a claimed batch to the free list (storage retained). */
    void release(SeededBatch *batch);

    uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
    uint64_t
    misses() const
    {
        return misses_.load(std::memory_order_relaxed);
    }

  private:
    std::mutex mutex_;
    std::vector<std::unique_ptr<SeededBatch>> all_;
    std::vector<SeededBatch *> free_;
    size_t batch_capacity_;
    std::atomic<uint64_t> hits_{0}, misses_{0};
};

/**
 * Bounded MPMC ring of published batches, optionally sharded by
 * producer. One push = one lock + at most one notify (only when a
 * consumer is actually waiting); one pop likewise toward producers —
 * the audited replacement for the per-read queue whose popBatch woke
 * every producer with notify_all. Counted in
 * `threaded.queue.{publishes,claims,wakeups}`; the wakeup invariant
 * (wakeups <= publishes + claims) is asserted by tools/check_metrics.sh.
 *
 * With more than one shard a consumer scans all shards (own shard
 * first) and naps on its home shard between scans, so cross-shard
 * publishes are picked up within the nap interval without global
 * notification traffic.
 */
class BatchRing
{
  public:
    BatchRing(size_t capacity_per_shard, size_t shards);

    /** Publish a filled batch; blocks while the producer's shard is
     *  full. */
    void push(SeededBatch *batch, size_t producer);

    /** Publish without waiting: false (nothing published) when the
     *  producer's shard is full. */
    bool tryPush(SeededBatch *batch, size_t producer);

    /** Claim the oldest available batch, preferring the consumer's home
     *  shard; blocks while empty. Returns nullptr only when the ring is
     *  closed and fully drained. */
    SeededBatch *pop(size_t consumer);

    /** Claim like pop() but never wait: nullptr when every shard is
     *  empty at the time of the scan. Lets a producer whose shard is
     *  full run the consumer stage itself instead of blocking. */
    SeededBatch *tryPop(size_t consumer);

    /** No more pushes: wake everyone so drained consumers can exit. */
    void close();

    uint64_t
    publishes() const
    {
        return publishes_.load(std::memory_order_relaxed);
    }
    uint64_t
    claims() const
    {
        return claims_.load(std::memory_order_relaxed);
    }
    uint64_t
    wakeups() const
    {
        return wakeups_.load(std::memory_order_relaxed);
    }
    size_t shardCount() const { return shards_.size(); }
    size_t capacityPerShard() const { return capacity_; }
    int64_t maxDepth() const;
    /** Mean total depth observed at publish time. */
    double avgDepth() const;

  private:
    struct Shard
    {
        std::mutex mutex;
        std::condition_variable not_empty, not_full;
        std::vector<SeededBatch *> ring;
        size_t head = 0;
        /** Atomic so other shards' consumers can peek without the
         *  lock; writes happen under `mutex`. */
        std::atomic<size_t> count{0};
        int waiting_producers = 0;
        int waiting_consumers = 0;
    };

    void putLocked(Shard &s, SeededBatch *batch,
                   std::unique_lock<std::mutex> &lock);
    SeededBatch *takeLocked(Shard &s, std::unique_lock<std::mutex> &lock);
    SeededBatch *scanShards(size_t home);
    size_t totalCount() const;
    void recordDepth(bool published);

    std::vector<std::unique_ptr<Shard>> shards_;
    size_t capacity_;
    std::atomic<bool> closed_{false};
    std::atomic<uint64_t> publishes_{0}, claims_{0}, wakeups_{0};
    std::atomic<uint64_t> depth_sum_{0};
    std::atomic<int64_t> depth_max_{0};
};

/**
 * Sequence-stamped reorder window: consumers complete batches in any
 * order; the sink fires in strictly increasing sequence order, as soon
 * as the head of the window fills. The sink runs under the buffer lock
 * (that is what serializes it), so its whole cost is serial: every
 * reserve() and complete() waits while it runs. sinkSeconds() and
 * windowWaitSeconds() measure both sides.
 *
 * Back-pressure lives on the PRODUCER side: a producer must reserve(seq)
 * before building/publishing batch seq, which blocks while seq is
 * outside the window. That guarantee is what keeps complete() from ever
 * blocking a consumer — if consumers could block here, every consumer
 * could park at the window edge while the head batch sat unclaimed in a
 * ring shard, deadlocking the pipeline. With reserve() gating admission,
 * any published batch is inside the window by construction, consumers
 * always drain the ring, and the head always retires.
 */
class ReorderBuffer
{
  public:
    /** Receives each retired batch: the batch's first read index and
     *  its records (recs[i] belongs to read base + i). */
    using BatchSink =
        std::function<void(size_t base, std::vector<SamRecord> &&recs)>;

    ReorderBuffer(size_t window, BatchSink sink);

    /** Admission control: block until batch `seq` fits in the window.
     *  Call before filling/publishing the batch. */
    void reserve(uint64_t seq);

    /** Hand over batch `seq`'s finished records. `seq` must have been
     *  reserved, so this never blocks a consumer. */
    void complete(uint64_t seq, size_t base,
                  std::vector<SamRecord> &&recs);

    uint64_t retired() const;
    int64_t maxPending() const;

    /** Seconds spent retiring batches into the sink. The sink runs
     *  under the buffer lock, so this is the pipeline's serial section:
     *  no other thread can reserve or complete meanwhile. */
    double sinkSeconds() const;

    /** Seconds threads spent in reserve() and complete() waiting for
     *  the buffer lock or for window space, summed over threads. */
    double windowWaitSeconds() const;

  private:
    struct Slot
    {
        bool full = false;
        size_t base = 0;
        std::vector<SamRecord> recs;
    };

    mutable std::mutex mutex_;
    std::condition_variable space_;
    std::vector<Slot> slots_;
    uint64_t next_ = 0;
    size_t pending_ = 0;
    int64_t max_pending_ = 0;
    uint64_t retired_ = 0;
    double sink_seconds_ = 0;
    double wait_seconds_ = 0;
    BatchSink sink_;
};

} // namespace seedex

#endif // SEEDEX_ALIGNER_BATCH_RING_H
