#ifndef SEEDEX_SEEDEX_BAND_POLICY_H
#define SEEDEX_SEEDEX_BAND_POLICY_H

#include <cstdint>
#include <string>
#include <vector>

#include "seedex/filter.h"

namespace seedex {

/**
 * Adaptive band speculation (DESIGN.md §13).
 *
 * The SeedEx guarantee is band-invariant: for ANY narrow band
 * w <= estimateFullBand, an accepted narrow-band result is bit-equal to
 * the full-band result (narrow <= estimated <= unbanded, and acceptance
 * proves narrow == unbanded). The fixed policy exploits this at one
 * global band; the adaptive policy predicts a per-extension initial
 * band from cheap signals and, on rejection, climbs an escalation
 * ladder of wider filtered rungs instead of jumping straight to the
 * full-band host rerun. Every rung re-runs the complete optimality
 * check battery, so the output contract is unchanged — only the DP work
 * spent reaching it moves.
 */

/** Which band-speculation policy drives the ladder. */
enum class BandPolicyKind
{
    Fixed,    ///< one filtered rung at the configured band (the paper)
    Adaptive, ///< predicted first rung + escalation ladder
};

/** Parse "fixed"/"adaptive"; throws std::invalid_argument otherwise. */
BandPolicyKind parseBandPolicyKind(const std::string &name);
const char *bandPolicyKindName(BandPolicyKind kind);

/**
 * Cheap per-extension signals available before any DP runs. All fields
 * are optional (zeros degrade to the length-only prediction); the
 * aligner fills them from the chain being extended.
 */
struct BandHint
{
    /** Oriented read length (0 = use the flank's query length). */
    int read_len = 0;
    /** Approximate query bases covered by the chain (BWA's weight) —
     *  the complement is a divergence proxy: bases no seed matched. */
    int chain_weight = 0;
    /** Seeds in the chain (mismatching k-mer anchors split seeds, so a
     *  fragmented chain hints at a noisier extension). */
    int n_seeds = 0;
};

/** Configuration of one band-speculation policy instance. */
struct BandPolicyConfig
{
    BandPolicyKind kind = BandPolicyKind::Fixed;
    /** Band of the fixed policy's single rung, and the cap every
     *  adaptive prediction/escalation is clamped to before the final
     *  full-band fallback (the paper's deployed 41). */
    int base_band = 41;
    /** Floor of adaptive predictions (a band this narrow still accepts
     *  the bulk of clean Illumina-like extensions). */
    int min_band = 9;
    /** EWMA smoothing: alpha = 1 / 2^ewma_shift (integer Q8 state, so
     *  per-worker predictor state is bounded and deterministic). */
    int ewma_shift = 3;
    /** Safety margin added above the EWMA ceiling when predicting. */
    int headroom = 2;
    /**
     * Explicit escalation bands tried (in order) after the predicted
     * first rung; empty derives the default doubling ladder
     * w -> 2w+1 -> ... -> base_band. Rungs are clamped to the
     * per-extension band estimate and deduplicated ascending.
     */
    std::vector<int> ladder;

    static BandPolicyConfig
    fixed(int band)
    {
        BandPolicyConfig c;
        c.kind = BandPolicyKind::Fixed;
        c.base_band = band;
        return c;
    }

    static BandPolicyConfig
    adaptive(int band)
    {
        BandPolicyConfig c;
        c.kind = BandPolicyKind::Adaptive;
        c.base_band = band;
        return c;
    }
};

/** Parse a "--band-ladder=9,19,41" rung list; throws
 *  std::invalid_argument on garbage, non-positive, or descending
 *  values. */
std::vector<int> parseBandLadder(const std::string &spec);

/**
 * Per-worker band predictor: an online EWMA over the diagonal offsets
 * (`max_off`) recent extensions actually needed, blended with the
 * per-extension divergence proxy from the chain. Integer Q8 state only
 * — bounded, allocation-free, and deterministic for a fixed observation
 * sequence. Predictor state never influences output bytes (every rung
 * is re-filtered and the final fallback is the full band), so sharing
 * policy state per worker thread keeps threaded SAM byte-identical.
 */
class BandPredictor
{
  public:
    explicit BandPredictor(const BandPolicyConfig &config)
        : config_(config),
          ewma_q8_(static_cast<uint32_t>(config.min_band) << 8)
    {}

    /** Initial band for one extension, clamped to
     *  [min_band, base_band]. */
    int predict(const BandHint &hint) const;

    /** Feed back the diagonal offset an extension's accepted (or
     *  rerun) result actually used. */
    void
    observe(int band_used)
    {
        if (band_used < 0)
            band_used = 0;
        const uint32_t sample = static_cast<uint32_t>(band_used) << 8;
        // ewma += (sample - ewma) >> shift, in signed arithmetic.
        const int64_t delta = static_cast<int64_t>(sample) -
            static_cast<int64_t>(ewma_q8_);
        ewma_q8_ = static_cast<uint32_t>(
            static_cast<int64_t>(ewma_q8_) + (delta >> config_.ewma_shift));
        ++observations_;
    }

    /** Current EWMA ceiling (integer band). */
    int
    ewmaBand() const
    {
        return static_cast<int>((ewma_q8_ + 255) >> 8);
    }

    uint64_t observations() const { return observations_; }

  private:
    BandPolicyConfig config_;
    uint32_t ewma_q8_;
    uint64_t observations_ = 0;
};

/** Telemetry of one ladder traversal (one extension). */
struct LadderOutcome
{
    /** The guaranteed-optimal result (accepted rung or full-band
     *  fallback). */
    ExtendResult result;
    /** Verdict of the last filtered rung (the one FilterStats saw). */
    Verdict verdict = Verdict::FailS1;
    /** Whether any rung consulted the edit machine (device provisioning
     *  accounting mirrors FilterOutcome::ran_edit_machine). */
    bool ran_edit_machine = false;
    /** Band of the first rung; -1 when the policy made no prediction
     *  (fixed kind). */
    int band_predicted = -1;
    /** Filtered rungs executed (>= 1). */
    int rungs_run = 0;
    /** Rejections that climbed to a wider rung or the full band. */
    int escalations = 0;
    /** True if some filtered rung accepted (no full-band fallback). */
    bool accepted = false;
    /** Modeled DP cells saved vs running the estimated full band
     *  directly (qlen x (2w+1) per rung, clamped at zero). */
    uint64_t cells_saved = 0;
    /** The last filtered rung's narrow-band kernel result (equal to
     *  `result` when that rung accepted) and the band it ran at. The
     *  device model reuses it for timing instead of re-running the
     *  kernel whenever `narrow_band` is the device band. */
    ExtendResult narrow;
    int narrow_band = 0;
};

/**
 * The policy object one worker owns: configuration + predictor state.
 * extend() runs the escalation ladder for one extension through the
 * given filter's checks and returns the guaranteed-optimal result;
 * every path funnels the final filtered rung through
 * FilterStats::add exactly once, preserving the
 * `filter.verdict.total == extensions` identity for any policy.
 */
class BandPolicy
{
  public:
    explicit BandPolicy(BandPolicyConfig config)
        : config_(std::move(config)), predictor_(config_)
    {}

    const BandPolicyConfig &config() const { return config_; }
    BandPredictor &predictor() { return predictor_; }
    const BandPredictor &predictor() const { return predictor_; }

    /**
     * One extension through the ladder. `filter` supplies the scoring,
     * check configuration, and the band cap (its configured band acts
     * as base_band when the policy's cap is wider); `stats` (optional)
     * receives exactly one FilterOutcome — the final filtered rung's.
     */
    LadderOutcome extend(const SeedExFilter &filter, const Sequence &query,
                         const Sequence &target, int h0,
                         const BandHint &hint, FilterStats *stats);

  private:
    BandPolicyConfig config_;
    BandPredictor predictor_;
};

/** Append the policy's run-report section fields (`band_policy`
 *  section: configuration + the process-wide seedex.band.* counters).
 *  Declared here so the CLI and benches share one writer. */
namespace obs_detail {
struct BandPolicyCounters
{
    uint64_t predicted = 0;
    uint64_t escalations = 0;
    uint64_t ladder_hits = 0;
    uint64_t rerun_cells_saved = 0;
};
} // namespace obs_detail

/** Snapshot of the process-wide seedex.band.* instruments. */
obs_detail::BandPolicyCounters bandPolicyCounters();

} // namespace seedex

#endif // SEEDEX_SEEDEX_BAND_POLICY_H
