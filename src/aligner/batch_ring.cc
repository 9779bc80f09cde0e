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

BatchRing::BatchRing(size_t capacity)
    : ring_(std::max<size_t>(1, capacity), nullptr)
{}

void
BatchRing::recordDepth(bool published)
{
    const auto depth = static_cast<int64_t>(count_);
    ringMetrics().depth.set(depth);
    obs::TraceSession::global().counter("threaded.queue.depth",
                                        static_cast<double>(depth));
    if (published) {
        depth_sum_ += static_cast<uint64_t>(depth);
        depth_max_ = std::max(depth_max_, depth);
    }
}

void
BatchRing::push(SeededBatch *batch)
{
    std::unique_lock<std::mutex> lock(mutex_);
    if (count_ >= ring_.size()) {
        ++waiting_producers_;
        not_full_.wait(lock, [&] { return count_ < ring_.size(); });
        --waiting_producers_;
    }
    putLocked(batch, lock);
}

bool
BatchRing::tryPush(SeededBatch *batch)
{
    std::unique_lock<std::mutex> lock(mutex_);
    if (count_ >= ring_.size())
        return false;
    putLocked(batch, lock);
    return true;
}

void
BatchRing::putLocked(SeededBatch *batch, std::unique_lock<std::mutex> &lock)
{
    ring_[(head_ + count_) % ring_.size()] = batch;
    ++count_;
    ++publishes_;
    ringMetrics().publishes.inc();
    recordDepth(/*published=*/true);
    // At most one notify per publish, and only when someone is parked
    // (the wakeup audit this ring exists for).
    const bool wake = waiting_consumers_ > 0;
    if (wake) {
        ++wakeups_;
        ringMetrics().wakeups.inc();
    }
    lock.unlock();
    if (wake)
        not_empty_.notify_one();
}

SeededBatch *
BatchRing::takeLocked(std::unique_lock<std::mutex> &lock)
{
    if (count_ == 0)
        return nullptr;
    SeededBatch *batch = ring_[head_];
    head_ = (head_ + 1) % ring_.size();
    --count_;
    ++claims_;
    ringMetrics().claims.inc();
    recordDepth(/*published=*/false);
    const bool wake = waiting_producers_ > 0;
    if (wake) {
        ++wakeups_;
        ringMetrics().wakeups.inc();
    }
    lock.unlock();
    if (wake)
        not_full_.notify_one();
    return batch;
}

SeededBatch *
BatchRing::tryPop()
{
    std::unique_lock<std::mutex> lock(mutex_);
    return takeLocked(lock);
}

SeededBatch *
BatchRing::pop()
{
    std::unique_lock<std::mutex> lock(mutex_);
    if (count_ == 0 && !closed_) {
        ++waiting_consumers_;
        not_empty_.wait(lock, [&] { return count_ > 0 || closed_; });
        --waiting_consumers_;
    }
    return takeLocked(lock);
}

void
BatchRing::close()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        closed_ = true;
    }
    // Shutdown broadcast: deliberately not counted as wakeups (the
    // audited invariant covers steady-state publishes/claims).
    not_empty_.notify_all();
    not_full_.notify_all();
}

uint64_t
BatchRing::publishes() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return publishes_;
}

uint64_t
BatchRing::claims() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return claims_;
}

uint64_t
BatchRing::wakeups() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return wakeups_;
}

int64_t
BatchRing::maxDepth() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return depth_max_;
}

double
BatchRing::avgDepth() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return publishes_ == 0 ? 0.0
                           : static_cast<double>(depth_sum_) /
            static_cast<double>(publishes_);
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
