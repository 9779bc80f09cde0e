#include "aligner/batch_ring.h"

#include <algorithm>
#include <chrono>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace seedex {

namespace {

/** Hand-off instruments (Fig. 12 queue pressure, now at batch
 *  granularity plus recycling effectiveness). */
struct RingMetrics
{
    obs::Counter &publishes =
        obs::MetricsRegistry::global().counter("threaded.queue.publishes");
    obs::Counter &claims =
        obs::MetricsRegistry::global().counter("threaded.queue.claims");
    obs::Counter &wakeups =
        obs::MetricsRegistry::global().counter("threaded.queue.wakeups");
    obs::Gauge &depth =
        obs::MetricsRegistry::global().gauge("threaded.queue.depth");
    obs::Counter &pool_hits =
        obs::MetricsRegistry::global().counter("threaded.pool.hits");
    obs::Counter &pool_misses =
        obs::MetricsRegistry::global().counter("threaded.pool.misses");
    obs::Gauge &reorder_pending =
        obs::MetricsRegistry::global().gauge("threaded.reorder.pending");
    obs::Counter &reorder_retired =
        obs::MetricsRegistry::global().counter("threaded.reorder.retired");
};

RingMetrics &
ringMetrics()
{
    static RingMetrics metrics;
    return metrics;
}

/** How long a consumer naps on its home shard before rescanning the
 *  others (sharded configuration only; single-shard waits are purely
 *  notification driven). */
constexpr std::chrono::microseconds kShardNap{500};

using Clock = std::chrono::steady_clock;

double
seconds(Clock::duration d)
{
    return std::chrono::duration<double>(d).count();
}

} // namespace

// ------------------------------------------------------------- BatchPool

BatchPool::BatchPool(size_t expected_batches, size_t batch_capacity)
    : batch_capacity_(batch_capacity)
{
    all_.reserve(expected_batches);
    free_.reserve(expected_batches);
}

SeededBatch *
BatchPool::acquire()
{
    SeededBatch *batch = nullptr;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!free_.empty()) {
            batch = free_.back();
            free_.pop_back();
        }
    }
    if (batch != nullptr) {
        hits_.fetch_add(1, std::memory_order_relaxed);
        ringMetrics().pool_hits.inc();
    } else {
        auto fresh = std::make_unique<SeededBatch>();
        batch = fresh.get();
        std::lock_guard<std::mutex> lock(mutex_);
        all_.push_back(std::move(fresh));
        misses_.fetch_add(1, std::memory_order_relaxed);
        ringMetrics().pool_misses.inc();
    }
    batch->prepare(batch_capacity_);
    return batch;
}

void
BatchPool::release(SeededBatch *batch)
{
    batch->n_items = 0;
    std::lock_guard<std::mutex> lock(mutex_);
    free_.push_back(batch);
}

// ------------------------------------------------------------- BatchRing

BatchRing::BatchRing(size_t capacity_per_shard, size_t shards)
    : capacity_(std::max<size_t>(1, capacity_per_shard))
{
    shards = std::max<size_t>(1, shards);
    shards_.reserve(shards);
    for (size_t i = 0; i < shards; ++i) {
        auto shard = std::make_unique<Shard>();
        shard->ring.assign(capacity_, nullptr);
        shards_.push_back(std::move(shard));
    }
}

size_t
BatchRing::totalCount() const
{
    size_t total = 0;
    for (const auto &s : shards_)
        total += s->count.load(std::memory_order_acquire);
    return total;
}

void
BatchRing::recordDepth(bool published)
{
    const auto depth = static_cast<int64_t>(totalCount());
    ringMetrics().depth.set(depth);
    obs::TraceSession::global().counter("threaded.queue.depth",
                                        static_cast<double>(depth));
    if (published) {
        depth_sum_.fetch_add(static_cast<uint64_t>(depth),
                             std::memory_order_relaxed);
        int64_t cur = depth_max_.load(std::memory_order_relaxed);
        while (depth > cur &&
               !depth_max_.compare_exchange_weak(
                   cur, depth, std::memory_order_relaxed))
            ;
    }
}

void
BatchRing::push(SeededBatch *batch, size_t producer)
{
    Shard &s = *shards_[producer % shards_.size()];
    std::unique_lock<std::mutex> lock(s.mutex);
    if (s.count.load(std::memory_order_relaxed) >= capacity_) {
        ++s.waiting_producers;
        s.not_full.wait(lock, [&] {
            return s.count.load(std::memory_order_relaxed) < capacity_;
        });
        --s.waiting_producers;
    }
    putLocked(s, batch, lock);
}

bool
BatchRing::tryPush(SeededBatch *batch, size_t producer)
{
    Shard &s = *shards_[producer % shards_.size()];
    std::unique_lock<std::mutex> lock(s.mutex);
    if (s.count.load(std::memory_order_relaxed) >= capacity_)
        return false;
    putLocked(s, batch, lock);
    return true;
}

void
BatchRing::putLocked(Shard &s, SeededBatch *batch,
                     std::unique_lock<std::mutex> &lock)
{
    const size_t count = s.count.load(std::memory_order_relaxed);
    s.ring[(s.head + count) % capacity_] = batch;
    s.count.store(count + 1, std::memory_order_release);
    publishes_.fetch_add(1, std::memory_order_relaxed);
    ringMetrics().publishes.inc();
    recordDepth(/*published=*/true);
    // At most one notify per publish, and only when someone is parked
    // (the wakeup audit this ring exists for).
    const bool wake = s.waiting_consumers > 0;
    if (wake) {
        wakeups_.fetch_add(1, std::memory_order_relaxed);
        ringMetrics().wakeups.inc();
    }
    lock.unlock();
    if (wake)
        s.not_empty.notify_one();
}

SeededBatch *
BatchRing::takeLocked(Shard &s, std::unique_lock<std::mutex> &lock)
{
    const size_t count = s.count.load(std::memory_order_relaxed);
    if (count == 0)
        return nullptr;
    SeededBatch *batch = s.ring[s.head];
    s.head = (s.head + 1) % capacity_;
    s.count.store(count - 1, std::memory_order_release);
    claims_.fetch_add(1, std::memory_order_relaxed);
    ringMetrics().claims.inc();
    recordDepth(/*published=*/false);
    const bool wake = s.waiting_producers > 0;
    if (wake) {
        wakeups_.fetch_add(1, std::memory_order_relaxed);
        ringMetrics().wakeups.inc();
    }
    lock.unlock();
    if (wake)
        s.not_full.notify_one();
    return batch;
}

SeededBatch *
BatchRing::scanShards(size_t home)
{
    // Every shard, home first; the lock-free count peek keeps foreign
    // shards untouched when they are empty.
    const size_t n = shards_.size();
    for (size_t k = 0; k < n; ++k) {
        Shard &s = *shards_[(home + k) % n];
        if (s.count.load(std::memory_order_acquire) == 0)
            continue;
        std::unique_lock<std::mutex> lock(s.mutex);
        if (SeededBatch *batch = takeLocked(s, lock))
            return batch;
    }
    return nullptr;
}

SeededBatch *
BatchRing::tryPop(size_t consumer)
{
    return scanShards(consumer % shards_.size());
}

SeededBatch *
BatchRing::pop(size_t consumer)
{
    const size_t n = shards_.size();
    const size_t home = consumer % n;
    for (;;) {
        if (SeededBatch *batch = scanShards(home))
            return batch;
        if (closed_.load(std::memory_order_acquire) && totalCount() == 0)
            return nullptr;
        Shard &s = *shards_[home];
        std::unique_lock<std::mutex> lock(s.mutex);
        if (s.count.load(std::memory_order_relaxed) == 0 &&
            !closed_.load(std::memory_order_relaxed)) {
            ++s.waiting_consumers;
            const auto ready = [&] {
                return s.count.load(std::memory_order_relaxed) > 0 ||
                       closed_.load(std::memory_order_relaxed);
            };
            if (n == 1)
                s.not_empty.wait(lock, ready);
            else
                // Nap, then rescan: a foreign-shard publish does not
                // notify this shard, so bound the sleep instead.
                s.not_empty.wait_for(lock, kShardNap, ready);
            --s.waiting_consumers;
        }
        if (SeededBatch *batch = takeLocked(s, lock))
            return batch;
    }
}

void
BatchRing::close()
{
    closed_.store(true, std::memory_order_release);
    for (auto &s : shards_) {
        { std::lock_guard<std::mutex> lock(s->mutex); }
        // Shutdown broadcast: deliberately not counted as wakeups (the
        // audited invariant covers steady-state publishes/claims).
        s->not_empty.notify_all();
        s->not_full.notify_all();
    }
}

int64_t
BatchRing::maxDepth() const
{
    return depth_max_.load(std::memory_order_relaxed);
}

double
BatchRing::avgDepth() const
{
    const uint64_t n = publishes_.load(std::memory_order_relaxed);
    if (n == 0)
        return 0.0;
    return static_cast<double>(
               depth_sum_.load(std::memory_order_relaxed)) /
           static_cast<double>(n);
}

// --------------------------------------------------------- ReorderBuffer

ReorderBuffer::ReorderBuffer(size_t window, BatchSink sink)
    : slots_(std::max<size_t>(1, window)), sink_(std::move(sink))
{}

void
ReorderBuffer::reserve(uint64_t seq)
{
    const Clock::time_point begin = Clock::now();
    std::unique_lock<std::mutex> lock(mutex_);
    space_.wait(lock, [&] { return seq < next_ + slots_.size(); });
    wait_seconds_ += seconds(Clock::now() - begin);
}

void
ReorderBuffer::complete(uint64_t seq, size_t base,
                        std::vector<SamRecord> &&recs)
{
    const Clock::time_point begin = Clock::now();
    std::unique_lock<std::mutex> lock(mutex_);
    // reserve() already admitted seq; this wait is a pure safety net
    // against misuse (it cannot fire when producers reserve first).
    space_.wait(lock, [&] { return seq < next_ + slots_.size(); });
    const Clock::time_point admitted = Clock::now();
    wait_seconds_ += seconds(admitted - begin);
    Slot &slot = slots_[seq % slots_.size()];
    slot.full = true;
    slot.base = base;
    slot.recs = std::move(recs);
    ++pending_;
    max_pending_ = std::max(max_pending_, static_cast<int64_t>(pending_));
    bool advanced = false;
    while (slots_[next_ % slots_.size()].full) {
        Slot &head = slots_[next_ % slots_.size()];
        head.full = false;
        --pending_;
        ++retired_;
        ringMetrics().reorder_retired.inc();
        // Under the lock: this is what makes the sink strictly ordered.
        sink_(head.base, std::move(head.recs));
        ++next_;
        advanced = true;
    }
    ringMetrics().reorder_pending.set(static_cast<int64_t>(pending_));
    if (advanced) {
        sink_seconds_ += seconds(Clock::now() - admitted);
        space_.notify_all();
    }
}

uint64_t
ReorderBuffer::retired() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return retired_;
}

int64_t
ReorderBuffer::maxPending() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return max_pending_;
}

double
ReorderBuffer::sinkSeconds() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return sink_seconds_;
}

double
ReorderBuffer::windowWaitSeconds() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return wait_seconds_;
}

} // namespace seedex
