#include "hw/systolic.h"

#include <algorithm>

#include "align/kernel.h"

namespace seedex {

ExtendResult
SystolicBswCore::run(const Sequence &query, const Sequence &target, int h0,
                     BswCoreStats *stats, BandEdgeTrace *trace) const
{
    // Functional behaviour: exactly the software kernel (the array
    // implements the same recurrence and BWA-specific terminations).
    ExtendConfig cfg;
    cfg.scoring = scoring_;
    cfg.band = w_;
    cfg.edge_trace = trace;
    const ExtendResult res = kswExtend(query, target, h0, cfg);
    if (stats)
        model(query, target, h0, res, stats);
    return res;
}

void
SystolicBswCore::model(const Sequence &query, const Sequence &target,
                       int h0, const ExtendResult &result,
                       BswCoreStats *stats) const
{
    // Rows swept: bounded by how far the alignment stays live; the model
    // reuses the result's tle/gtle extent plus band slack as the march
    // length, clamped to the target length.
    const int qlen = static_cast<int>(query.size());
    const int tlen = static_cast<int>(target.size());
    const int live_rows =
        std::min(tlen, std::max(result.tle, result.gtle) + w_ + 1);
    stats->rows_processed = live_rows;
    stats->cycles = latencyCycles(live_rows, qlen);
    stats->early_term_exception =
        speculationException(query, target, h0, scoring_, w_);
}

} // namespace seedex
