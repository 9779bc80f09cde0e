#ifndef SEEDEX_OBS_METRICS_H
#define SEEDEX_OBS_METRICS_H

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace seedex::obs {

/**
 * Monotonic event counter. Increments are relaxed atomics so hot paths
 * (per-read, per-extension) stay wait-free; readers only see a snapshot
 * anyway.
 */
class Counter
{
  public:
    void inc(uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
    uint64_t value() const { return v_.load(std::memory_order_relaxed); }
    void reset() { v_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<uint64_t> v_{0};
};

/** Instantaneous level (queue depth, inflight batches) plus a high-water
 *  mark maintained with a CAS loop. */
class Gauge
{
  public:
    void
    set(int64_t v)
    {
        v_.store(v, std::memory_order_relaxed);
        recordMax(v);
    }

    void
    add(int64_t d)
    {
        const int64_t now = v_.fetch_add(d, std::memory_order_relaxed) + d;
        recordMax(now);
    }

    int64_t value() const { return v_.load(std::memory_order_relaxed); }
    int64_t maxValue() const { return max_.load(std::memory_order_relaxed); }

    void
    reset()
    {
        v_.store(0, std::memory_order_relaxed);
        max_.store(0, std::memory_order_relaxed);
    }

  private:
    void
    recordMax(int64_t v)
    {
        int64_t cur = max_.load(std::memory_order_relaxed);
        while (v > cur &&
               !max_.compare_exchange_weak(cur, v,
                                           std::memory_order_relaxed))
            ;
    }

    std::atomic<int64_t> v_{0};
    std::atomic<int64_t> max_{0};
};

/** Summary statistics of one latency histogram at snapshot time. */
struct HistogramSummary
{
    uint64_t count = 0;
    double sum = 0;   ///< seconds
    double min = 0;   ///< 0 when empty
    double max = 0;
    double mean = 0;
    double p50 = 0;
    double p90 = 0;
    double p99 = 0;
};

/**
 * Fixed-bucket latency histogram: log-spaced buckets from 100 ns to
 * 100 s (5 per decade) plus under/overflow, all relaxed atomics.
 * Percentiles interpolate log-linearly inside the landing bucket, which
 * is exact enough for p50/p90/p99 summaries at 5 buckets/decade (~58 %
 * bucket width, ~±26 % worst-case value error — far below the
 * run-to-run variance of any wall-clock stage time).
 */
class LatencyHistogram
{
  public:
    static constexpr int kBucketsPerDecade = 5;
    static constexpr int kDecades = 9;
    static constexpr double kMinValue = 1e-7;
    /** Finite buckets + underflow (index 0) + overflow (last index). */
    static constexpr int kBuckets = kBucketsPerDecade * kDecades + 2;

    /** Record one observation; negative values clamp to underflow. */
    void observe(double seconds);

    uint64_t count() const { return count_.load(std::memory_order_relaxed); }

    /** Smallest value v such that >= q of observations are <= v
     *  (q in [0,1]); 0 when empty. */
    double percentile(double q) const;

    double mean() const;

    HistogramSummary summary() const;

    void reset();

  private:
    static double bucketUpperBound(int idx);
    static double bucketLowerBound(int idx);

    std::array<std::atomic<uint64_t>, kBuckets> buckets_{};
    std::atomic<uint64_t> count_{0};
    std::atomic<uint64_t> sum_ns_{0};
    std::atomic<uint64_t> min_ns_{UINT64_MAX};
    std::atomic<uint64_t> max_ns_{0};
};

/** Records the lifetime of a scope into a LatencyHistogram (steady
 *  clock; the observe happens in the destructor). */
class ScopedLatency
{
  public:
    explicit ScopedLatency(LatencyHistogram &h)
        : h_(h), start_(std::chrono::steady_clock::now())
    {}

    ScopedLatency(const ScopedLatency &) = delete;
    ScopedLatency &operator=(const ScopedLatency &) = delete;

    ~ScopedLatency()
    {
        const auto elapsed = std::chrono::steady_clock::now() - start_;
        h_.observe(std::chrono::duration<double>(elapsed).count());
    }

  private:
    LatencyHistogram &h_;
    std::chrono::steady_clock::time_point start_;
};

/** Point-in-time copy of every registered instrument. */
struct MetricsSnapshot
{
    std::vector<std::pair<std::string, uint64_t>> counters;
    /** name -> (value, high-water mark). */
    std::vector<std::pair<std::string, std::pair<int64_t, int64_t>>> gauges;
    std::vector<std::pair<std::string, HistogramSummary>> histograms;

    /** Counter value by name; 0 if absent (counters that never fired are
     *  indistinguishable from unregistered ones by design). */
    uint64_t counterValue(const std::string &name) const;
    /** Gauge (value, high-water) by name; (0, 0) if absent. */
    std::pair<int64_t, int64_t> gaugeValue(const std::string &name) const;
    const HistogramSummary *findHistogram(const std::string &name) const;
};

/**
 * Process-wide registry of named instruments. Lookup-or-create takes a
 * lock; call sites cache the returned reference (instruments are
 * heap-allocated and never move or die, and reset() zeroes values
 * without invalidating references), so steady-state updates never touch
 * the registry mutex. Naming convention: dotted lowercase paths,
 * `<subsystem>.<object>.<unit>` — e.g. `stage.seed.seconds`,
 * `filter.verdict.pass_s2`, `threaded.queue.depth` (see DESIGN.md
 * §"Observability").
 */
class MetricsRegistry
{
  public:
    static MetricsRegistry &global();

    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    LatencyHistogram &histogram(const std::string &name);

    MetricsSnapshot snapshot() const;

    /** Zero every instrument (benchmarks / tests scoping a phase).
     *  References previously handed out remain valid. */
    void reset();

  private:
    mutable std::mutex mutex_;
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
    std::map<std::string, std::unique_ptr<LatencyHistogram>> histograms_;
};

} // namespace seedex::obs

#endif // SEEDEX_OBS_METRICS_H
