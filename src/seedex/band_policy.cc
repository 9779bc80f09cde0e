#include "seedex/band_policy.h"

#include <algorithm>
#include <stdexcept>

#include "obs/metrics.h"

namespace seedex {

namespace {

/** Registry instruments for the band-speculation subsystem. These count
 *  ladder mechanics (how the band was found), not verdicts — verdicts
 *  stay the exclusive business of FilterStats::add, which sees exactly
 *  one outcome per extension (the final filtered rung), preserving
 *  `filter.verdict.total == pipeline.extensions` under any policy. */
struct BandCounters
{
    obs::Counter &predicted =
        obs::MetricsRegistry::global().counter("seedex.band.predicted");
    obs::Counter &escalations =
        obs::MetricsRegistry::global().counter("seedex.band.escalations");
    obs::Counter &ladder_hits =
        obs::MetricsRegistry::global().counter("seedex.band.ladder_hits");
    obs::Counter &rerun_cells_saved = obs::MetricsRegistry::global().counter(
        "seedex.band.rerun_cells_saved");
};

BandCounters &
bandCounters()
{
    static BandCounters counters;
    return counters;
}

/** Banded-DP cell model shared with DESIGN.md §13: a band of half-width
 *  w sweeps 2w+1 anti-diagonal cells per query row. This deliberately
 *  mirrors the kernel's work (align.kernel.cells) and ignores the edit
 *  machine's fixed-cost check pass. */
uint64_t
bandCells(int qlen, int band)
{
    return static_cast<uint64_t>(qlen) *
        (2 * static_cast<uint64_t>(band) + 1);
}

/** Most rungs an adaptive traversal can run: predicted rung, doubling
 *  escalations up to base_band, plus slack for explicit ladders. Fixed
 *  at compile time so the rung list lives on the stack (zero-alloc
 *  steady state). */
constexpr int kMaxRungs = 8;

} // namespace

BandPolicyKind
parseBandPolicyKind(const std::string &name)
{
    if (name == "fixed")
        return BandPolicyKind::Fixed;
    if (name == "adaptive")
        return BandPolicyKind::Adaptive;
    throw std::invalid_argument("unknown band policy '" + name +
                                "' (expected fixed|adaptive)");
}

const char *
bandPolicyKindName(BandPolicyKind kind)
{
    return kind == BandPolicyKind::Fixed ? "fixed" : "adaptive";
}

std::vector<int>
parseBandLadder(const std::string &spec)
{
    std::vector<int> out;
    size_t pos = 0;
    while (pos <= spec.size()) {
        const size_t comma = std::min(spec.find(',', pos), spec.size());
        const std::string item = spec.substr(pos, comma - pos);
        size_t used = 0;
        int value = 0;
        try {
            value = std::stoi(item, &used);
        } catch (const std::exception &) {
            throw std::invalid_argument("bad band ladder rung '" + item +
                                        "'");
        }
        if (used != item.size() || value <= 0)
            throw std::invalid_argument("bad band ladder rung '" + item +
                                        "' (want positive integers)");
        if (!out.empty() && value <= out.back())
            throw std::invalid_argument(
                "band ladder must be strictly ascending");
        out.push_back(value);
        pos = comma + 1;
    }
    if (out.empty())
        throw std::invalid_argument("empty band ladder");
    return out;
}

int
BandPredictor::predict(const BandHint &hint) const
{
    // Baseline: the EWMA of diagonal offsets recent extensions actually
    // needed, plus a safety margin. This adapts the floor of speculation
    // to the workload's realized divergence without per-read branches.
    int band = ewmaBand() + config_.headroom;

    // Divergence proxies from the chain. Uncovered query bases are the
    // bases no seed matched — mostly substitutions, which do not widen
    // the optimal path's diagonal wander, so only a fraction converts
    // into band. Each extra seed implies a junction that may hide an
    // indel, which does shift the diagonal by one per base.
    if (hint.read_len > 0 && hint.chain_weight > 0) {
        const int uncovered = hint.read_len - hint.chain_weight;
        if (uncovered > 0)
            band = std::max(band, config_.min_band + uncovered / 4);
    }
    if (hint.n_seeds > 1)
        band += hint.n_seeds - 1;

    return std::clamp(band, config_.min_band, config_.base_band);
}

LadderOutcome
BandPolicy::extend(const SeedExFilter &filter, const Sequence &query,
                   const Sequence &target, int h0, const BandHint &hint,
                   FilterStats *stats)
{
    BandCounters &bc = bandCounters();
    LadderOutcome out;

    const SeedExConfig &base_cfg = filter.config();
    const int qlen = static_cast<int>(query.size());
    const int est =
        estimateFullBand(qlen, base_cfg.scoring, base_cfg.end_bonus);

    // ---- Build the rung list (ascending filtered bands, all capped at
    // the per-extension estimate beyond which wider bands change
    // nothing).
    int rungs[kMaxRungs];
    int n_rungs = 0;
    if (config_.kind == BandPolicyKind::Fixed) {
        // The paper's one-shot speculation: a single filtered rung at
        // the configured band (BWA caps it at the estimate), then the
        // host full-band rerun. Exactly the pre-policy behavior.
        rungs[n_rungs++] = std::min(base_cfg.band, est);
    } else {
        const int predicted = predictor_.predict(hint);
        out.band_predicted = predicted;
        bc.predicted.inc();
        const int cap = std::min(config_.base_band, est);
        rungs[n_rungs++] = std::min(predicted, est);
        if (!config_.ladder.empty()) {
            for (int rung : config_.ladder) {
                rung = std::min(rung, est);
                if (rung > rungs[n_rungs - 1] && n_rungs < kMaxRungs)
                    rungs[n_rungs++] = rung;
            }
        } else {
            // Derived doubling schedule w -> 2w+1 -> ... -> base_band.
            while (rungs[n_rungs - 1] < cap && n_rungs < kMaxRungs) {
                const int next =
                    std::min(2 * rungs[n_rungs - 1] + 1, cap);
                rungs[n_rungs++] = next;
            }
        }
    }

    // ---- Climb the ladder. Every rung replays the full check battery,
    // so acceptance at ANY rung is proof of full-band bit-equality (the
    // sandwich narrow <= estimated <= unbanded holds for every w <= est).
    FilterOutcome outcome;
    uint64_t cells_spent = 0;
    for (int i = 0; i < n_rungs; ++i) {
        SeedExConfig cfg = base_cfg;
        cfg.band = rungs[i];
        outcome = SeedExFilter(cfg).run(query, target, h0);
        ++out.rungs_run;
        cells_spent += bandCells(qlen, rungs[i]);
        if (outcome.isAccepted())
            break;
    }
    out.escalations = out.rungs_run - 1;
    out.narrow = outcome.narrow;
    out.narrow_band = rungs[out.rungs_run - 1];
    out.verdict = outcome.verdict;
    out.ran_edit_machine = outcome.ran_edit_machine;
    out.accepted = outcome.isAccepted();

    // Exactly one verdict per extension reaches the stats funnel — the
    // final filtered rung's — no matter how many rungs ran.
    if (stats)
        stats->add(outcome);

    if (out.accepted) {
        out.result = outcome.narrow;
        bc.ladder_hits.inc();
    } else {
        // Final fallback: the unconditional host rerun at the estimated
        // full band (identical to SeedExFilter::runWithRerun's path).
        ExtendConfig cfg;
        cfg.scoring = base_cfg.scoring;
        cfg.band = est;
        cfg.zdrop = base_cfg.zdrop;
        out.result = kswExtend(query, target, h0, cfg);
        cells_spent += bandCells(qlen, est);
    }

    const uint64_t direct = bandCells(qlen, est);
    out.cells_saved = cells_spent < direct ? direct - cells_spent : 0;

    if (out.escalations > 0)
        bc.escalations.inc(static_cast<uint64_t>(out.escalations));
    if (out.cells_saved > 0)
        bc.rerun_cells_saved.inc(out.cells_saved);

    // Feed realized divergence back into the predictor. Output bytes
    // never depend on this state (every rung is re-filtered and the
    // fallback is the full band), so per-worker predictors keep threaded
    // SAM byte-identical regardless of read interleaving.
    predictor_.observe(out.result.max_off);

    // Single-threaded provenance: fold ladder mechanics into the open
    // read record. (The threaded pipeline carries these per job in
    // BatchResult instead, since device batches interleave reads.)
    if (obs::ReadRecord *rec = obs::Ledger::active()) {
        rec->ladder_rungs += static_cast<uint32_t>(out.rungs_run);
        if (out.band_predicted > rec->band_predicted)
            rec->band_predicted = out.band_predicted;
    }

    return out;
}

obs_detail::BandPolicyCounters
bandPolicyCounters()
{
    BandCounters &bc = bandCounters();
    obs_detail::BandPolicyCounters out;
    out.predicted = bc.predicted.value();
    out.escalations = bc.escalations.value();
    out.ladder_hits = bc.ladder_hits.value();
    out.rerun_cells_saved = bc.rerun_cells_saved.value();
    return out;
}

} // namespace seedex
