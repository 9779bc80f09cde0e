#include "hw/systolic.h"

#include <algorithm>

#include "align/workspace.h"

namespace seedex {

namespace {

/**
 * Detect whether the speculative hardware row termination would fire.
 *
 * The software kernel trims each row's live interval after fully scanning
 * it; the systolic array cannot (rows are in flight concurrently), so it
 * terminates a row once it sees two consecutive dead cells and raises an
 * exception if a positive score later appears in that row via the E
 * channel from rows above. Equivalently: some row's live pattern within
 * the band is non-contiguous with a gap of >= 2 dead cells.
 */
bool
speculationException(const Sequence &query, const Sequence &target, int h0,
                     const Scoring &s, int w)
{
    const int qlen = static_cast<int>(query.size());
    const int tlen = static_cast<int>(target.size());
    const int oe_del = s.gap_open_del + s.gap_extend_del;
    const int oe_ins = s.gap_open_ins + s.gap_extend_ins;

    struct Cell
    {
        int h = 0, e = 0;
    };
    // Skewed H/E column from the thread's DP workspace (slot systolic).
    DpWorkspace &ws = DpWorkspace::tls();
    Cell *eh =
        ws.ensure<Cell>(ws.systolic, static_cast<size_t>(qlen) + 1);
    std::fill(eh, eh + qlen + 1, Cell{});
    eh[0].h = h0;
    if (qlen >= 1)
        eh[1].h = h0 > oe_ins ? h0 - oe_ins : 0;
    for (int j = 2; j <= qlen && eh[j - 1].h > s.gap_extend_ins; ++j)
        eh[j].h = eh[j - 1].h - s.gap_extend_ins;

    for (int i = 0; i < tlen; ++i) {
        const int beg = std::max(0, i - w);
        const int end = std::min(qlen, i + w + 1);
        if (beg >= end)
            break;
        int f = 0;
        int h1;
        if (beg == 0) {
            h1 = h0 - (s.gap_open_del + s.gap_extend_del * (i + 1));
            if (h1 < 0)
                h1 = 0;
        } else {
            h1 = 0;
        }
        // The progressive initialization keeps a structural live island
        // near column 0 (init value decaying down the rows, F-propagated
        // a few columns right). Its extent is known from h0 and the
        // scoring alone, so the hardware's speculative terminator only
        // arms beyond it -- otherwise every extension with h0 > oe would
        // falsely terminate in the dead gap between the island and the
        // live diagonal.
        const int init_reach = beg == 0
            ? std::max(0, h0 - (s.gap_open_del +
                                s.gap_extend_del * (i + 1)) -
                              oe_ins + 4)
            : 0;
        int dead_run = 0;
        bool armed = false;
        bool terminated = false;
        bool exception = false;
        bool row_live = false;
        for (int j = beg; j < end; ++j) {
            Cell &p = eh[j];
            int h, M = p.h, e = p.e;
            p.h = h1;
            M = M ? M + s.score(target[i], query[j]) : 0;
            h = std::max({M, e, f});
            h1 = h;
            const bool live = h != 0 || e != 0;
            row_live |= live;
            if (live && j > init_reach)
                armed = true; // saw the real (diagonal) live region
            if (!live) {
                if (armed && ++dead_run >= 2)
                    terminated = true;
            } else {
                if (terminated)
                    exception = true; // live cell after the cut
                dead_run = 0;
            }
            int t = std::max(M - oe_del, 0);
            e = std::max(e - s.gap_extend_del, t);
            p.e = e;
            t = std::max(M - oe_ins, 0);
            f = std::max(f - s.gap_extend_ins, t);
        }
        if (exception)
            return true;
        if (!row_live)
            break;
    }
    return false;
}

} // namespace

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
