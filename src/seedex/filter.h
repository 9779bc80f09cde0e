#ifndef SEEDEX_SEEDEX_FILTER_H
#define SEEDEX_SEEDEX_FILTER_H

#include <cstdint>

#include "align/extend.h"
#include "obs/ledger.h"
#include "seedex/checks.h"

namespace seedex {

/** Which stage of the Fig. 6 workflow decided the outcome. */
enum class Verdict
{
    PassS2,          ///< scorenb > S2: optimal, accepted immediately
    PassChecks,      ///< S1 < scorenb <= S2 and both checks passed
    FailS1,          ///< scorenb <= S1: score too small, rerun on host
    FailEScore,      ///< E-score check failed, rerun
    FailEditCheck,   ///< edit-distance check failed, rerun
    FailGscoreGuard, ///< strict mode: gscore not provably band-optimal
};

/** True if the verdict accepts the narrow-band result. */
inline bool
accepted(Verdict v)
{
    return v == Verdict::PassS2 || v == Verdict::PassChecks;
}

/** The provenance-ledger reason code for a verdict (the single
 *  conversion point between the filter enum and the stable JSONL
 *  codes). */
inline obs::LedgerVerdict
ledgerVerdict(Verdict v)
{
    switch (v) {
      case Verdict::PassS2: return obs::LedgerVerdict::PassS2;
      case Verdict::PassChecks: return obs::LedgerVerdict::PassChecks;
      case Verdict::FailS1: return obs::LedgerVerdict::FailS1;
      case Verdict::FailEScore: return obs::LedgerVerdict::FailEScore;
      case Verdict::FailEditCheck:
        return obs::LedgerVerdict::FailEditCheck;
      case Verdict::FailGscoreGuard:
        return obs::LedgerVerdict::FailGscoreGuard;
    }
    return obs::LedgerVerdict::FailS1;
}

/**
 * BWA-MEM treats gscore <= 0 as "no to-query-end extension exists" (the
 * clipping branch fires on `gscore <= 0`), so a narrow-band gscore of -1
 * (band never reached the final query column) and a full-band gscore of 0
 * (reached it through dead cells) are bit-equivalent downstream. This
 * predicate is the equality the optimality guarantee promises for the
 * semi-global outputs.
 */
inline bool
gscoreEquivalent(const ExtendResult &a, const ExtendResult &b)
{
    if (a.gscore <= 0 && b.gscore <= 0)
        return true;
    return a.gscore == b.gscore && a.gtle == b.gtle;
}

/** Configuration of a SeedEx filter instance. */
struct SeedExConfig
{
    Scoring scoring = Scoring::bwaDefault();
    /** Narrow-band half-width (the paper's deployed configuration is 41). */
    int band = 41;
    ExtensionKind kind = ExtensionKind::SemiGlobal;
    /** Disable to measure thresholding-only passing rates (Fig. 14). */
    bool enable_e_check = true;
    bool enable_edit_check = true;
    /**
     * Strict mode additionally guards the semi-global (to-query-end)
     * score so that accepted results are bit-identical to the full-band
     * kernel in *all* output fields, not just the best score. This is our
     * extension beyond the paper's published checks (see DESIGN.md §5);
     * turning it off gives the paper-faithful workflow.
     */
    bool strict_gscore = true;
    /** Z-drop for the narrow-band kernel; keep disabled so narrow and
     *  full-band semantics agree (see DESIGN.md). */
    int zdrop = -1;
    /** End bonus folded into the host rerun's band estimate (BWA-MEM
     *  adds pen_clip when sizing the full band). */
    int end_bonus = 5;
};

/** Outcome of one speculative narrow-band extension plus checks. */
struct FilterOutcome
{
    /** The narrow-band kernel result (authoritative only if accepted). */
    ExtendResult narrow;
    Verdict verdict = Verdict::FailS1;
    Thresholds thresholds;
    /** scoreMaxE (0 when the E-score check did not run). */
    int score_max_e = 0;
    /** Edit-machine bounds (zeros when the edit check did not run). */
    EditCheckResult edit;
    /** True if the workflow consulted the edit machine (drives the 3:1
     *  BSW:edit provisioning analysis, §VII-A). */
    bool ran_edit_machine = false;

    bool isAccepted() const { return accepted(verdict); }
};

/** Aggregate counters over a batch of extensions. */
struct FilterStats
{
    uint64_t total = 0;
    uint64_t pass_s2 = 0;
    uint64_t pass_checks = 0;
    uint64_t fail_s1 = 0;
    uint64_t fail_e = 0;
    uint64_t fail_edit = 0;
    uint64_t fail_gscore_guard = 0;
    uint64_t edit_machine_runs = 0;

    void add(const FilterOutcome &outcome);
    double passRate() const;
    /** Passing rate of the thresholding mechanism alone (score > S2). */
    double thresholdPassRate() const;
};

/** One extension through the whole Fig. 6 workflow. */
struct Speculation
{
    /** The guaranteed full-band-optimal result: the narrow result when
     *  the checks accept it, else the host rerun at the estimated full
     *  band. */
    ExtendResult result;
    /** The narrow-band speculation and its verdict (the one outcome
     *  FilterStats saw). */
    FilterOutcome outcome;
    /** Band the speculation ran at: the configured band capped at
     *  BWA's per-extension estimate. */
    int band = 0;

    bool accepted() const { return outcome.isAccepted(); }
};

/**
 * The SeedEx speculation-and-test filter (§III, Fig. 6).
 *
 * run() speculatively executes the narrow-band kernel at the configured
 * band and applies the optimality checks; speculate() is the whole
 * workflow every engine uses, and is guaranteed to return the
 * full-band-optimal result.
 */
class SeedExFilter
{
  public:
    explicit SeedExFilter(SeedExConfig config) : config_(config) {}

    const SeedExConfig &config() const { return config_; }

    /** Speculate on the configured band and test optimality. */
    FilterOutcome run(const Sequence &query, const Sequence &target,
                      int h0) const;

    /**
     * Full workflow: speculate at min(configured band, BWA's estimate),
     * test, and on rejection rerun at the estimated full band (host
     * path in Fig. 6). Acceptance at any band up to the estimate proves
     * full-band bit-equality (narrow <= estimated <= unbanded), so the
     * cap changes only the DP work spent. Accepted speculations below
     * the estimate add the modeled cells they saved to
     * `seedex.band.rerun_cells_saved`.
     *
     * @param stats Optional counters; receive exactly one outcome.
     */
    Speculation speculate(const Sequence &query, const Sequence &target,
                          int h0, FilterStats *stats = nullptr) const;

  private:
    FilterOutcome runAt(const Sequence &query, const Sequence &target,
                        int h0, int band) const;

    SeedExConfig config_;
};

} // namespace seedex

#endif // SEEDEX_SEEDEX_FILTER_H
