#include "hw/edit_machine.h"

#include <algorithm>

#include "align/workspace.h"
#include "hw/delta.h"

namespace seedex {

namespace {

/**
 * One DP value carried through the 3-bit datapath. The wide shadow exists
 * only so the model can verify every residue decision; the hardware keeps
 * just {residue, valid}. `valid` marks structurally absent neighbors
 * (outside the trapezoid), not score signs -- the DP is unfloored, which
 * is what keeps adjacent values Lipschitz-bounded and the modulo circle
 * unambiguous.
 */
struct DeltaValue
{
    int wide = 0;
    uint8_t residue = 0;
    bool valid = false;
};

DeltaValue
makeValue(int wide)
{
    return {wide, DeltaCodec::encode(wide), true};
}

/** dmax over two values honoring valid bits; counts circle violations. */
DeltaValue
dmax(const DeltaValue &a, const DeltaValue &b, EditMachineStats *stats)
{
    if (!a.valid)
        return b;
    if (!b.valid)
        return a;
    if (stats && std::abs(a.wide - b.wide) > DeltaCodec::kMaxDiff)
        ++stats->delta_violations;
    // The residue decision must agree with the shadow whenever the
    // operands respect the circle bound; tests rely on the violation
    // counter staying zero.
    return DeltaCodec::secondIsLarger(a.residue, b.residue) ? b : a;
}

} // namespace

EditCheckResult
EditMachine::run(const Sequence &query, const Sequence &target, int h0,
                 const Scoring &affine, EditMachineStats *stats) const
{
    EditCheckResult res;
    const int qlen = static_cast<int>(query.size());
    const int tlen = static_cast<int>(target.size());
    const int w = w_;
    if (tlen < w + 2)
        return res;

    // Single-channel recurrence (gap-open cost is zero in the relaxed
    // scheme, so no E/F register files -- the first Fig. 16b saving).
    const int ge_del = relaxed_.gap_open_del + relaxed_.gap_extend_del;
    const int ge_ins = relaxed_.gap_open_ins + relaxed_.gap_extend_ins;

    // Two rolling rows from the thread's DP workspace (slot edit_machine).
    DpWorkspace &ws = DpWorkspace::tls();
    DeltaValue *prev =
        ws.ensure<DeltaValue>(ws.edit_machine, 2 * static_cast<size_t>(qlen));
    DeltaValue *cur = prev + qlen;
    std::fill(prev, prev + 2 * static_cast<size_t>(qlen), DeltaValue{});

    auto col_init = [&](int i) {
        return h0 -
               (affine.gap_open_del + affine.gap_extend_del * (i + 1));
    };

    // The single augmentation unit (Fig. 10). Free insertions make every
    // row non-decreasing, so each row's maximum is its *last* cell: the
    // augmentation path is the trapezoid's right edge, and consecutive
    // path cells differ by at most 2 (diagonal/vertical Lipschitz bound),
    // well inside the modulo circle. Full-width comparisons (row max,
    // exit bound, sign tests) happen after decode, inside this unit.
    int anchor = 0;
    bool anchor_live = false;
    auto decode = [&](const DeltaValue &v) {
        int decoded;
        if (anchor_live &&
            std::abs(v.wide - anchor) <= DeltaCodec::kMaxDiff) {
            decoded = DeltaCodec::decodeNear(anchor, v.residue);
        } else {
            // Re-anchor: full-width reload of the augmentation register
            // (happens once, at the top corner of the trapezoid).
            decoded = v.wide;
        }
        if (stats)
            ++stats->augment_decodes;
        anchor = decoded;
        anchor_live = true;
        return decoded;
    };

    for (int i = w + 1; i < tlen; ++i) {
        const int jmax = std::min(i - (w + 1), qlen - 1);
        for (int j = 0; j <= jmax; ++j) {
            if (stats)
                ++stats->cells;
            const DeltaValue diag =
                j == 0 ? makeValue(col_init(i - 1)) : prev[j - 1];
            DeltaValue m_val;
            if (diag.valid) {
                m_val = makeValue(diag.wide +
                                  relaxed_.score(target[i], query[j]));
            }
            DeltaValue up_val;
            if (i - j >= w + 2 && prev[j].valid)
                up_val = makeValue(prev[j].wide - ge_del);
            DeltaValue left_val;
            if (j > 0 && cur[j - 1].valid)
                left_val = makeValue(cur[j - 1].wide - ge_ins);
            cur[j] = dmax(dmax(m_val, up_val, stats), left_val, stats);
        }
        // Read out the augmentation-path cell (the row's last = max).
        const DeltaValue &last = cur[jmax];
        if (last.valid) {
            const int decoded = decode(last);
            if (decoded > 0) {
                res.region_max = std::max(res.region_max, decoded);
                if (i - jmax == w + 1) { // boundary cell: exit to band
                    res.exit_bound = std::max(
                        res.exit_bound,
                        decoded + (qlen - jmax - 1) * affine.match);
                }
                if (jmax == qlen - 1)
                    res.gscore_bound = std::max(res.gscore_bound, decoded);
            }
        }
        std::swap(prev, cur);
        std::fill(cur, cur + jmax + 1, DeltaValue{});
    }
    if (stats)
        stats->cycles = cycles(tlen);
    return res;
}

} // namespace seedex
