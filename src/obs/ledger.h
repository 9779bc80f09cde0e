#ifndef SEEDEX_OBS_LEDGER_H
#define SEEDEX_OBS_LEDGER_H

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace seedex::obs {

/**
 * Stable per-extension reason codes recorded in the provenance ledger.
 * They mirror `seedex::Verdict` one-to-one (see `ledgerVerdict()` in
 * seedex/filter.h, the only conversion point) but are redefined here so
 * the obs layer stays free of upper-layer dependencies and the JSONL
 * schema is pinned independently of filter-internal enum evolution.
 * The reason-code table is documented in DESIGN.md §10.
 */
enum class LedgerVerdict : uint8_t
{
    PassS2 = 0,      ///< score cleared S2: optimal, accepted immediately
    PassChecks,      ///< S1 < score <= S2 and both checks passed
    FailS1,          ///< score too small; full-band fallback
    FailEScore,      ///< E-score check failed; fallback
    FailEditCheck,   ///< edit-distance check failed; fallback
    FailGscoreGuard, ///< strict gscore guard failed; fallback
};

inline constexpr int kLedgerVerdicts = 6;

/** Stable JSONL field name of one reason code ("pass_s2", ...). */
const char *ledgerVerdictName(LedgerVerdict v);

/** True if the reason code accepts the narrow-band result. */
inline bool
ledgerAccepted(LedgerVerdict v)
{
    return v == LedgerVerdict::PassS2 || v == LedgerVerdict::PassChecks;
}

/**
 * One read's journey through the pipeline: seeding yield, the chain the
 * aligner chose, the SeedEx band prediction, per-extension filter
 * verdict tallies (reason codes above), fallback count, kernel usage,
 * and the final alignment outcome. Exported as one JSONL line per read
 * (`Ledger::writeJsonl`).
 */
struct ReadRecord
{
    uint64_t read_index = 0;
    std::string name;
    /** Seeds collected for the read. */
    uint32_t seeds = 0;
    /** Chains after chaining. */
    uint32_t chains = 0;
    /** Index of the winning chain within the read; -1 when unmapped. */
    int32_t chain_chosen = -1;
    /** SeedEx/banded band prediction (half-width); -1 = full band. */
    int32_t band = -1;
    /** Unguaranteed-path provenance: z-drop terminations and band-clip
     *  events (extension hit the capped band edge) for the banded
     *  engine, so Fig. 13-style divergence is attributable. */
    uint32_t zdrops = 0;
    uint32_t band_clips = 0;
    /** Max |diagonal offset| any of this read's extensions used (the
     *  band the optimal alignment actually needed, Fig. 2 "Used"). */
    int32_t band_used = 0;
    /** Banded-extension kernel invocations (narrow passes + reruns). */
    uint32_t kernel_calls = 0;
    /** Engine/device extension jobs issued for the read. */
    uint32_t extensions = 0;
    /** Per-reason-code verdict tallies, indexed by LedgerVerdict. */
    std::array<uint32_t, kLedgerVerdicts> verdicts{};
    uint32_t edit_machine_runs = 0;
    /** Full-band fallbacks (failed checks + speculative exceptions). */
    uint32_t reruns = 0;
    /** Long-read global gap fills attributed to this read. */
    uint32_t global_fills = 0;
    uint32_t global_reruns = 0;
    /** Final alignment score (AS); 0 when unmapped. */
    int32_t score = 0;
    bool mapped = false;
    /** Pair provenance (paired pipelines; single-end reads keep the
     *  defaults). `rescue_extensions` counts the engine extensions the
     *  pair spent trying to place this read by mate rescue, whether or
     *  not it was placed (`pair_rescued`). */
    bool paired = false;
    bool proper = false;
    bool pair_rescued = false;
    uint32_t rescue_extensions = 0;
    /** Dispatched kernel tier ("scalar"/"sse"/"avx2"); string literal. */
    const char *kernel = "";

    /** Tally one filter verdict (does not touch `reruns`; the caller
     *  owns fallback accounting, which may include exception reruns the
     *  verdict alone cannot see). */
    void
    addVerdict(LedgerVerdict v, bool ran_edit_machine)
    {
        ++verdicts[static_cast<size_t>(v)];
        if (ran_edit_machine)
            ++edit_machine_runs;
    }
};

/** One bucket of the band-width histogram; `le < 0` means +inf. */
struct LedgerBandBucket
{
    int le = 0;
    uint64_t count = 0;
};

/** Aggregate view over every recorded ReadRecord (the `ledger` section
 *  of the run report). */
struct LedgerSummary
{
    uint64_t records = 0;
    uint64_t mapped = 0;
    uint64_t extensions = 0;
    uint64_t kernel_calls = 0;
    std::array<uint64_t, kLedgerVerdicts> verdicts{};
    uint64_t edit_machine_runs = 0;
    uint64_t reruns = 0;
    uint64_t zdrops = 0;
    uint64_t band_clips = 0;
    uint64_t global_fills = 0;
    uint64_t global_reruns = 0;
    /** Histogram of per-read `band_used` (buckets 0,1,2,4,...,64,inf). */
    std::vector<LedgerBandBucket> band_used;
    uint32_t sample_every = 1;

    uint64_t verdictTotal() const;
    /** Fraction of extensions that fell back to the full band. */
    double fallbackRate() const;
};

/**
 * Process-wide provenance ledger. Mirrors TraceSession's threading
 * model: each OS thread publishes finished records into its own buffer
 * (registration takes the mutex once per thread; every publish is a
 * plain vector push by its single writer), so recording never contends.
 * Aggregation (collect/summary/toJsonl/clear) must happen at a
 * quiescent point — after worker threads are joined, which provides the
 * happens-before edge publishing their buffers.
 *
 * Disabled by default: a read processed while the ledger is off costs
 * one relaxed atomic load. `enable(n)` records every n-th read
 * (`read_index % n == 0`), so a sampled ledger remains deterministic
 * for a given read numbering.
 */
class Ledger
{
  public:
    static Ledger &global();

    /** Start recording every `sample_every`-th read (1 = all). */
    void enable(uint32_t sample_every = 1);
    void disable();

    bool
    enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    uint32_t
    sampleEvery() const
    {
        return sample_every_.load(std::memory_order_relaxed);
    }

    /** Should `read_index` be recorded under the current sampling? */
    bool
    shouldRecord(uint64_t read_index) const
    {
        if (!enabled())
            return false;
        const uint32_t n = sampleEvery();
        return n <= 1 || read_index % n == 0;
    }

    /**
     * The record ActiveRecord attached on the calling thread, or nullptr.
     * Instrumented lower layers (filter funnel, extend kernel) attribute
     * events to it without any signature plumbing.
     */
    static ReadRecord *active();

    /** Publish a fully assembled record (the alignment stage builds each
     *  read's record itself; see ActiveRecord). */
    void publish(ReadRecord rec);

    /** Drop all records (quiescence only). */
    void clear();

    /** Records across all thread buffers (quiescence only). */
    size_t recordCount() const;

    /** Merged copy of every record, sorted by read_index (quiescence
     *  only; the threaded pipeline publishes out of order). */
    std::vector<ReadRecord> collect() const;

    /** Aggregate every record (quiescence only). */
    LedgerSummary summary() const;

    /** One JSON object per line, sorted by read_index (quiescence
     *  only). */
    std::string toJsonl() const;

    /** toJsonl() to a file; returns false on I/O failure. */
    bool writeJsonl(const std::string &path) const;

  private:
    struct ThreadBuffer
    {
        std::vector<ReadRecord> records;
    };

    ThreadBuffer &threadBuffer();

    std::atomic<bool> enabled_{false};
    std::atomic<uint32_t> sample_every_{1};
    mutable std::mutex mutex_;
    std::vector<std::shared_ptr<ThreadBuffer>> buffers_;
};

/**
 * RAII attachment for a caller-owned record (the alignment stage, which
 * assembles each read's record itself): while it lives, the calling
 * thread's Ledger::active() is `rec` (nullptr: none), so the
 * instrumented lower layers attribute onto it. The previous active
 * record is restored on destruction.
 */
class ActiveRecord
{
  public:
    explicit ActiveRecord(ReadRecord *rec);
    ~ActiveRecord();

    ActiveRecord(const ActiveRecord &) = delete;
    ActiveRecord &operator=(const ActiveRecord &) = delete;

  private:
    ReadRecord *saved_;
};

} // namespace seedex::obs

#endif // SEEDEX_OBS_LEDGER_H
