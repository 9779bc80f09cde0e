#ifndef SEEDEX_ALIGN_KERNEL_IMPL_H
#define SEEDEX_ALIGN_KERNEL_IMPL_H

/**
 * Shared template implementation of the int16 vector tiers of the
 * banded-extension engine. Included ONLY by the per-ISA translation
 * units (kernel_sse.cc, kernel_avx2.cc), which are compiled with the
 * matching -m flags and provide a Traits type wrapping the intrinsics.
 *
 * Layout: rows are unskewed SoA int16 arrays (the scalar reference keeps
 * the classic ksw_extend skewed pairs; the mapping between the two is
 * eh[j] = { H(i-1, j-1), E(i, j) } <-> H[j-1], E[j]). A single
 * persistent H row is kept (read fully in pass 1 before pass 2
 * overwrites it) so stale out-of-interval slots hold exactly the values
 * the scalar kernel would read after live-interval trimming regrows a
 * row — required for bit-exactness, since ksw_extend genuinely consumes
 * those stale cells.
 *
 * The F (insertion) channel is a max-plus prefix scan: with
 * T[j] = max(M[j] - oe, 0) the recurrence F[j] = max(T[j-1], F[j-1]-ge)
 * unrolls to F[j0+k] = max(P[k-1], carry - k*ge) where
 * P[k] = max_d (T[j0+k-d] - d*ge) is a log-step scan and carry = F[j0].
 * The scan runs in a biased-unsigned domain (x ^ 0x8000) so the zeros
 * shifted into vacated lanes act as -32768, a true minimum.
 *
 * Overflow escape: the vector tiers run only when every DP value
 * provably fits int16 (see extendFitsInt16 / gotohFitsInt16 below);
 * otherwise they return false and the dispatcher falls back to the
 * scalar int32 path, keeping results identical at every score range.
 */

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <limits>

#include "align/kernel.h"

namespace seedex {
namespace kern {

/** Scores reachable by an extension are bounded by h0 + qlen*match on
 *  the positive side; keep a margin below INT16_MAX for the +match adds. */
inline bool
extendFitsInt16(int h0, size_t qlen, const Scoring &s)
{
    return static_cast<int64_t>(h0) +
               static_cast<int64_t>(qlen) * std::max(s.match, 1) <=
           30000;
}

/** Banded-global scores are bounded by path-length * the largest single
 *  step unit; 8000 leaves the dead-sentinel range (see kGotohNegInf16)
 *  strictly separated from any real score. */
inline bool
gotohFitsInt16(size_t qlen, size_t tlen, const Scoring &s)
{
    const int64_t unit = std::max<int64_t>(
        {s.match, s.mismatch, s.gap_open_ins + s.gap_extend_ins,
         s.gap_open_del + s.gap_extend_del, 1});
    return static_cast<int64_t>(qlen + tlen + 2) * unit <= 8000;
}

/** Dead-cell sentinel of the int16 banded-global fill. Real scores stay
 *  in [-8000, 8000]; sentinel-rooted values drift at most +8000 upward,
 *  so the two ranges never meet and every comparison involving a
 *  traceback-reachable cell resolves as in int32. */
constexpr int16_t kGotohNegInf16 = -28000;

namespace detail {

inline int16_t
clampPenalty16(int x)
{
    return static_cast<int16_t>(std::min(x, 32767));
}

/** k*ge as a uint16 subtrahend for the biased-domain saturating
 *  subtract; clamping oversized products at 65535 floors the lane at the
 *  biased minimum, which is what the true (more negative) value would
 *  saturate to anyway. */
inline uint16_t
decayU16(int64_t k, int64_t ge)
{
    const int64_t d = k * ge;
    return static_cast<uint16_t>(std::min<int64_t>(d, 65535));
}

/**
 * The F-channel max-plus prefix scan of one block of lanes (see the
 * file comment), shared by every row loop of the vector tiers. Runs in
 * the biased-unsigned domain; inputs and outputs are plain int16.
 */
template <class TR>
class InsertionScan
{
    using vec = typename TR::vec;
    static constexpr int V = TR::kLanes;

  public:
    explicit InsertionScan(int64_t ge_ins)
        : ge1_(TR::set1u(decayU16(1, ge_ins))),
          ge2_(TR::set1u(decayU16(2, ge_ins))),
          ge4_(TR::set1u(decayU16(4, ge_ins))),
          ge8_(TR::set1u(decayU16(8, ge_ins))), // AVX2 only
          bias_(TR::set1(static_cast<int16_t>(0x8000))),
          decay_block_(decayU16(V, ge_ins))
    {
        alignas(64) uint16_t decay[V];
        for (int k = 0; k < V; ++k)
            decay[k] = decayU16(k, ge_ins);
        decay_ = TR::loadu(decay);
    }

    /** F of each lane of a block whose F-scan input is `t`. `carry`
     *  holds the biased F entering the block and is advanced to the F
     *  entering the next one. */
    vec
    operator()(vec t, uint32_t &carry) const
    {
        vec p = TR::xor_(t, bias_);
        p = TR::maxu(p, TR::subsu(TR::template shiftLanesUp<1>(p), ge1_));
        p = TR::maxu(p, TR::subsu(TR::template shiftLanesUp<2>(p), ge2_));
        p = TR::maxu(p, TR::subsu(TR::template shiftLanesUp<4>(p), ge4_));
        if constexpr (V == 16)
            p = TR::maxu(p,
                         TR::subsu(TR::template shiftLanesUp<8>(p), ge8_));
        const vec f = TR::maxu(
            TR::template shiftLanesUp<1>(p),
            TR::subsu(TR::set1u(static_cast<uint16_t>(carry)), decay_));
        const uint32_t decayed =
            carry > decay_block_ ? carry - decay_block_ : 0;
        carry = std::max<uint32_t>(TR::lastLaneU(p), decayed);
        return TR::xor_(f, bias_);
    }

  private:
    vec decay_, ge1_, ge2_, ge4_, ge8_, bias_;
    uint32_t decay_block_;
};

} // namespace detail

/**
 * Vector banded extension. Bit-exact with kern::extendScalar; returns
 * false (without touching `out`) when the score range fails the int16
 * guard.
 */
template <class TR>
bool
extendSimd(const Sequence &query, const Sequence &target, int h0,
           const ExtendConfig &config, DpWorkspace &ws, ExtendResult &out)
{
    using vec = typename TR::vec;
    constexpr int V = TR::kLanes;

    const int qlen = static_cast<int>(query.size());
    const int tlen = static_cast<int>(target.size());
    const Scoring &s = config.scoring;
    if (!extendFitsInt16(h0, query.size(), s))
        return false;

    const int oe_del = s.gap_open_del + s.gap_extend_del;
    const int oe_ins = s.gap_open_ins + s.gap_extend_ins;
    const long w = std::min<long>(config.band, qlen + tlen + 1);

    // Buffers (+1 element of front padding so index -1 is addressable;
    // +2V of tail padding so full-vector loads/stores never run off).
    const size_t cap = static_cast<size_t>(qlen) + 2 + 2 * V;
    int16_t *H = ws.ensure<int16_t>(ws.ext_h16a, cap) + 1;
    int16_t *G = ws.ensure<int16_t>(ws.ext_h16b, cap) + 1; // max(M,Eold)
    int16_t *E = ws.ensure<int16_t>(ws.ext_e16, cap) + 1;
    int16_t *T = ws.ensure<int16_t>(ws.ext_t16, cap) + 1;  // F-scan input
    int16_t *Q = ws.ensure<int16_t>(ws.ext_q16, cap) + 1;  // query codes

    // Query codes; ambiguous bases map to -1 so a lane compare can never
    // call them a match (mirrors Scoring::score's `ref < kNumBases`).
    for (int j = 0; j < qlen; ++j) {
        const int code = static_cast<int>(query[j]);
        Q[j] = code < kNumBases ? static_cast<int16_t>(code) : int16_t{-1};
    }

    // Row "-1": pure-insertion prefix of the query (scalar init, shifted
    // one slot left of the skewed layout: H[j] = H(-1, j)).
    std::fill(H - 1, H + qlen + V, int16_t{0});
    std::fill(E - 1, E + qlen + V, int16_t{0});
    H[-1] = static_cast<int16_t>(h0);
    if (qlen >= 1)
        H[0] = static_cast<int16_t>(h0 > oe_ins ? h0 - oe_ins : 0);
    for (int j = 1; j < qlen && H[j - 1] > s.gap_extend_ins; ++j)
        H[j] = static_cast<int16_t>(H[j - 1] - s.gap_extend_ins);

    const vec vzero = TR::zero();
    const vec vmatch = TR::set1(detail::clampPenalty16(s.match));
    const vec vmism = TR::set1(
        static_cast<int16_t>(-std::min(s.mismatch, 32768)));
    const vec voe_del = TR::set1(detail::clampPenalty16(oe_del));
    const vec voe_ins = TR::set1(detail::clampPenalty16(oe_ins));
    const vec vge_del = TR::set1(detail::clampPenalty16(s.gap_extend_del));
    const vec vidx = TR::lanesIndex();
    const detail::InsertionScan<TR> fscan(s.gap_extend_ins);

    int max = h0, max_i = -1, max_j = -1, max_off = 0;
    int gscore = -1, max_ie = -1;
    int beg = 0, end = qlen;
    uint64_t cells = 0;

    for (int i = 0; i < tlen; ++i) {
        int m = 0, mj = -1;
        if (beg < i - w)
            beg = static_cast<int>(i - w);
        if (end > i + w + 1)
            end = static_cast<int>(i + w + 1);
        if (end > qlen)
            end = qlen;
        int h1_0;
        if (beg == 0) {
            h1_0 = h0 - (s.gap_open_del + s.gap_extend_del * (i + 1));
            if (h1_0 < 0)
                h1_0 = 0;
        } else {
            h1_0 = 0;
        }
        cells += static_cast<uint64_t>(end > beg ? end - beg : 0);

        // Substitution scores for this row's target base.
        const int tcode = static_cast<int>(target[i]);
        const bool tvalid = tcode < kNumBases;
        const vec vt = TR::set1(static_cast<int16_t>(tcode));

        // Pass 1: read H(i-1, .) and E(i, .), stage G = max(M, Eold) and
        // the F-scan input T = max(M - oe_ins, 0), store E(i+1, .).
        for (int j0 = beg; j0 < end; j0 += V) {
            const vec Hd = TR::loadu(H + j0 - 1); // diagonal H(i-1, j-1)
            vec S = vmism;
            if (tvalid)
                S = TR::blend(TR::cmpeq(TR::loadu(Q + j0), vt), vmatch,
                              vmism);
            // Blocked restart: dead diagonal (H == 0) restarts at zero.
            const vec M =
                TR::andnot(TR::cmpeq(Hd, vzero), TR::adds(Hd, S));
            const vec Eold = TR::loadu(E + j0);
            TR::storeu(G + j0, TR::max(M, Eold));
            TR::storeu(T + j0,
                       TR::max(TR::subs(M, voe_ins), vzero));
            const vec Enew =
                TR::max(TR::subs(Eold, vge_del),
                        TR::max(TR::subs(M, voe_del), vzero));
            const int nvalid = end - j0;
            if (nvalid >= V) {
                TR::storeu(E + j0, Enew);
            } else {
                // Preserve stale lanes past `end` exactly as the scalar
                // kernel (which never writes them) would.
                const vec mask =
                    TR::cmpgt(TR::set1(static_cast<int16_t>(nvalid)),
                              vidx);
                TR::storeu(E + j0, TR::blend(mask, Enew, Eold));
            }
        }

        // The scalar kernel writes H(i, beg-1) into the skewed slot
        // during iteration j = beg; all pass-1 reads of row i-1 are done,
        // so the boundary store is safe now.
        H[beg - 1] = static_cast<int16_t>(h1_0);

        // Pass 2: F prefix scan, H = max(G, F), row max.
        uint32_t carry_b = 0x8000u; // F[beg] = 0, biased
        vec vmax = vzero;
        for (int j0 = beg; j0 < end; j0 += V) {
            const vec F = fscan(TR::loadu(T + j0), carry_b);
            const vec Hnew = TR::max(TR::loadu(G + j0), F);
            const int nvalid = end - j0;
            if (nvalid >= V) {
                TR::storeu(H + j0, Hnew);
                vmax = TR::max(vmax, Hnew);
            } else {
                const vec mask =
                    TR::cmpgt(TR::set1(static_cast<int16_t>(nvalid)),
                              vidx);
                const vec Hold = TR::loadu(H + j0);
                TR::storeu(H + j0, TR::blend(mask, Hnew, Hold));
                vmax = TR::max(vmax, TR::and_(mask, Hnew));
            }
        }
        E[end] = 0; // the scalar kernel's eh[end].e = 0
        m = end > beg ? TR::reduceMax(vmax) : 0;

        if (config.edge_trace && i - w >= beg && i - w < end)
            config.edge_trace->boundary_e[i - w] = E[i - w];

        const int h1_last = end > beg ? H[end - 1] : h1_0;
        if (end == qlen) {
            if (gscore < h1_last) {
                gscore = h1_last;
                max_ie = i;
            }
        }
        if (m == 0)
            break;
        if (m > max || config.zdrop > 0) {
            // Locate the LAST column attaining the row max (ksw's
            // `mj = m > h ? mj : j` keeps the final argmax on ties):
            // backward vector scan, scalar front remainder. Needed on
            // every live row when zdrop is armed — the drop test
            // compares against the current row's argmax.
            mj = -1;
            const vec vm = TR::set1(static_cast<int16_t>(m));
            int j0 = end - V;
            for (; j0 >= beg; j0 -= V) {
                const uint32_t hits = static_cast<uint32_t>(
                    TR::movemask(TR::cmpeq(TR::loadu(H + j0), vm)));
                if (hits != 0) {
                    mj = j0 + (31 - __builtin_clz(hits)) / 2;
                    break;
                }
            }
            if (mj < 0)
                for (int j = j0 + V - 1; j >= beg; --j)
                    if (H[j] == m) {
                        mj = j;
                        break;
                    }
        }
        if (m > max) {
            max = m;
            max_i = i;
            max_j = mj;
            max_off = std::max(max_off, std::abs(mj - i));
        } else if (config.zdrop > 0) {
            if (i - max_i > mj - max_j) {
                if (max - m -
                        ((i - max_i) - (mj - max_j)) * s.gap_extend_del >
                    config.zdrop) {
                    out.zdropped = true;
                    break;
                }
            } else {
                if (max - m -
                        ((mj - max_j) - (i - max_i)) * s.gap_extend_ins >
                    config.zdrop) {
                    out.zdropped = true;
                    break;
                }
            }
        }
        // Live-interval trimming, on the unskewed layout: the skewed
        // condition "eh[j].h == 0 && eh[j].e == 0" reads H(i, j-1) and
        // E(i+1, j), i.e. H[j-1] and E[j] here (E[end] was zeroed above,
        // H[end-1] is the scalar h1).
        int j = beg;
        while (j < end && H[j - 1] == 0 && E[j] == 0)
            ++j;
        beg = j;
        j = end;
        while (j >= beg && H[j - 1] == 0 && E[j] == 0)
            --j;
        end = j + 2 < qlen ? j + 2 : qlen;
    }

    setLastCellCount(cells);
    out.score = max;
    out.qle = max_j + 1;
    out.tle = max_i + 1;
    out.gscore = gscore;
    out.gtle = max_ie + 1;
    out.max_off = max_off;
    return true;
}

/** Widest band row the vector speculation sweep takes: one bit per
 *  column of a 128-bit row mask (2w+1 <= 128, i.e. w <= 63, or any band
 *  on queries of at most 128 bases). */
constexpr int kSpeculationRowBits = 128;

/**
 * Vector speculative-termination sweep of the systolic BSW array.
 * Bit-exact with kern::speculationScalar; returns false (without
 * touching `exception`) when the score range fails the int16 guard or a
 * band row can be wider than kSpeculationRowBits.
 *
 * The DP is extendSimd's two passes over the whole, untrimmed band row
 * [max(0, i-w), min(qlen, i+w+1)), with the scalar sweep's one quirk
 * kept: it never writes the row's last H into the skewed slot eh[end],
 * so when `end` grows, the new column's diagonal is still the row -1
 * insertion value. Here that slot is H[end-1], which pass 2 therefore
 * leaves untouched.
 *
 * Each row's live cells (H > 0; E >= 0 and H >= E, so this is the
 * scalar's `h != 0 || e != 0`) become one bit per column, and the
 * termination rule runs on the mask: the row arms at its first live
 * cell past `init_reach`, and the flag fires iff two consecutive dead
 * cells after that cell are followed by another live cell.
 */
template <class TR>
bool
speculationSimd(const Sequence &query, const Sequence &target, int h0,
                const Scoring &s, int band, DpWorkspace &ws,
                bool &exception)
{
    using vec = typename TR::vec;
    using RowBits = unsigned __int128;
    constexpr int V = TR::kLanes;

    const int qlen = static_cast<int>(query.size());
    const int tlen = static_cast<int>(target.size());
    const long w = band;
    if (!extendFitsInt16(h0, query.size(), s) ||
        std::min<long>(2 * w + 1, qlen) > kSpeculationRowBits)
        return false;

    const int oe_del = s.gap_open_del + s.gap_extend_del;
    const int oe_ins = s.gap_open_ins + s.gap_extend_ins;

    // Five int16 rows carved from the sweep's slot, laid out as in
    // extendSimd (front padding for index -1, tail padding for full
    // vector loads and stores).
    const size_t stride = static_cast<size_t>(qlen) + 2 + 2 * V;
    int16_t *rows = ws.ensure<int16_t>(ws.systolic, 5 * stride);
    int16_t *H = rows + 1;
    int16_t *G = rows + stride + 1;     // max(M, Eold)
    int16_t *E = rows + 2 * stride + 1;
    int16_t *T = rows + 3 * stride + 1; // F-scan input
    int16_t *Q = rows + 4 * stride + 1; // query codes

    for (int j = 0; j < qlen; ++j) {
        const int code = static_cast<int>(query[j]);
        Q[j] = code < kNumBases ? static_cast<int16_t>(code) : int16_t{-1};
    }
    std::fill(H - 1, H + qlen + V, int16_t{0});
    std::fill(E - 1, E + qlen + V, int16_t{0});
    H[-1] = static_cast<int16_t>(h0);
    if (qlen >= 1)
        H[0] = static_cast<int16_t>(h0 > oe_ins ? h0 - oe_ins : 0);
    for (int j = 1; j < qlen && H[j - 1] > s.gap_extend_ins; ++j)
        H[j] = static_cast<int16_t>(H[j - 1] - s.gap_extend_ins);

    const vec vzero = TR::zero();
    const vec vmatch = TR::set1(detail::clampPenalty16(s.match));
    const vec vmism = TR::set1(
        static_cast<int16_t>(-std::min(s.mismatch, 32768)));
    const vec voe_del = TR::set1(detail::clampPenalty16(oe_del));
    const vec voe_ins = TR::set1(detail::clampPenalty16(oe_ins));
    const vec vge_del = TR::set1(detail::clampPenalty16(s.gap_extend_del));
    const vec vidx = TR::lanesIndex();
    const detail::InsertionScan<TR> fscan(s.gap_extend_ins);

    for (int i = 0; i < tlen; ++i) {
        const int beg = static_cast<int>(std::max<long>(0, i - w));
        const int end = static_cast<int>(std::min<long>(qlen, i + w + 1));
        if (beg >= end)
            break;
        int h1_0 = 0, init_reach = 0;
        if (beg == 0) {
            const int decayed =
                h0 - (s.gap_open_del + s.gap_extend_del * (i + 1));
            h1_0 = std::max(decayed, 0);
            init_reach = std::max(0, decayed - oe_ins + 4);
        }

        const int tcode = static_cast<int>(target[i]);
        const bool tvalid = tcode < kNumBases;
        const vec vt = TR::set1(static_cast<int16_t>(tcode));

        // Pass 1: as extendSimd (G, T staged; E(i+1, .) stored, lanes
        // past `end` kept at their never-written zeros).
        for (int j0 = beg; j0 < end; j0 += V) {
            const vec Hd = TR::loadu(H + j0 - 1);
            vec S = vmism;
            if (tvalid)
                S = TR::blend(TR::cmpeq(TR::loadu(Q + j0), vt), vmatch,
                              vmism);
            const vec M =
                TR::andnot(TR::cmpeq(Hd, vzero), TR::adds(Hd, S));
            const vec Eold = TR::loadu(E + j0);
            TR::storeu(G + j0, TR::max(M, Eold));
            TR::storeu(T + j0, TR::max(TR::subs(M, voe_ins), vzero));
            const vec Enew =
                TR::max(TR::subs(Eold, vge_del),
                        TR::max(TR::subs(M, voe_del), vzero));
            const vec in_row = TR::cmpgt(
                TR::set1(static_cast<int16_t>(end - j0)), vidx);
            TR::storeu(E + j0, TR::blend(in_row, Enew, Eold));
        }
        H[beg - 1] = static_cast<int16_t>(h1_0);

        // Pass 2: F prefix scan and H as extendSimd; H is stored only
        // below column end-1 (the stale slot), and each block's live
        // lanes are appended to the row mask.
        RowBits live = 0;
        uint32_t carry_b = 0x8000u;
        for (int j0 = beg; j0 < end; j0 += V) {
            const vec Hnew = TR::max(TR::loadu(G + j0),
                                     fscan(TR::loadu(T + j0), carry_b));
            const vec store = TR::cmpgt(
                TR::set1(static_cast<int16_t>(end - 1 - j0)), vidx);
            TR::storeu(H + j0, TR::blend(store, Hnew, TR::loadu(H + j0)));
            uint32_t bits = TR::laneMask(TR::cmpgt(Hnew, vzero));
            if (end - j0 < V)
                bits &= (1u << (end - j0)) - 1;
            live |= static_cast<RowBits>(bits) << (j0 - beg);
        }
        if (live == 0)
            break;

        // Bit k is column beg + k; unsigned negation -x sets every bit
        // at or above x's lowest set bit.
        const int skip = init_reach + 1 - beg; // first column that arms
        const RowBits armable = skip <= 0 ? live
            : skip < kSpeculationRowBits ? live & (~RowBits{0} << skip)
                                         : RowBits{0};
        const RowBits armed = armable & -armable;
        const RowBits dead = ~live;
        // Bit k: columns k and k+1 dead, k past the arming cell.
        const RowBits pairs = dead & (dead >> 1) & -(armed << 1);
        const RowBits cut = pairs & -pairs;
        if ((live & -(cut << 1)) != 0) {
            exception = true;
            return true;
        }
    }
    exception = false;
    return true;
}

/**
 * Vector banded-global (Gotoh) fill. Identical score and identical
 * backpointers on every traceback-reachable cell; returns false when the
 * int16 guard fails.
 *
 * The same-row F recurrence F[j] = max(H[j-1]-oe, F[j-1]-ge) looks
 * sequential through H, but since H[j-1] >= F[j-1] and ge <= oe the
 * F-sourced open can never beat the extension, so
 * F[j] = max(ME[j-1]-oe, F[j-1]-ge) with ME = max(M, E) — a max-plus
 * prefix scan like the extension kernel's. The bf backpointer still
 * compares against the REAL H[j-1] (a second pass over the stored row),
 * so flags match the scalar fill bit-for-bit on reachable cells.
 *
 * Out-of-band neighbours read the kGotohNegInf16 sentinel from cleared
 * lanes instead of the scalar's explicit inBand() substitution; each
 * completed row re-poisons lane hi+1 (clobbered by the tail store) so
 * the next row's top-edge read sees the sentinel.
 */
template <class TR>
bool
gotohFillSimd(const Sequence &query, const Sequence &target,
              const Scoring &scoring, int band, DpWorkspace &ws,
              GotohFill &out)
{
    using vec = typename TR::vec;
    constexpr int V = TR::kLanes;

    const int qlen = static_cast<int>(query.size());
    const int tlen = static_cast<int>(target.size());
    if (!gotohFitsInt16(query.size(), target.size(), scoring))
        return false;

    const int width = 2 * band + 1;
    const int oe_del = scoring.gap_open_del + scoring.gap_extend_del;
    const int oe_ins = scoring.gap_open_ins + scoring.gap_extend_ins;
    const int16_t ninf = kGotohNegInf16;

    const size_t grid = static_cast<size_t>(tlen + 1) * width;
    uint8_t *bh = ws.ensure<uint8_t>(ws.gotoh_bh, grid);
    uint8_t *be = ws.ensure<uint8_t>(ws.gotoh_be, grid);
    uint8_t *bf = ws.ensure<uint8_t>(ws.gotoh_bf, grid);
    std::memset(bh, kGotohFromStart, grid);
    std::memset(be, 0, grid);
    std::memset(bf, 0, grid);

    // Nine int16 rows carved from one slot: 3×2 rolling H/E/F, M and
    // max(M,E) staging, query codes.
    const size_t stride = static_cast<size_t>(qlen) + 2 + 2 * V;
    int16_t *rows = ws.ensure<int16_t>(ws.gotoh_rows, 9 * stride);
    int16_t *h_prev = rows, *h_cur = rows + stride;
    int16_t *e_prev = rows + 2 * stride, *e_cur = rows + 3 * stride;
    int16_t *f_prev = rows + 4 * stride, *f_cur = rows + 5 * stride;
    int16_t *Mst = rows + 6 * stride;  // M = diag + S
    int16_t *MEst = rows + 7 * stride; // max(M, E)
    int16_t *Qc = rows + 8 * stride;   // query codes, 1-indexed
    std::fill(rows, rows + 9 * stride, ninf);
    for (int j = 1; j <= qlen; ++j) {
        const int code = static_cast<int>(query[j - 1]);
        Qc[j] = code < kNumBases ? static_cast<int16_t>(code) : int16_t{-1};
    }

    const vec vone = TR::set1(1);
    const vec vtwo = TR::set1(2);
    const vec vmatch = TR::set1(static_cast<int16_t>(scoring.match));
    const vec vmism = TR::set1(static_cast<int16_t>(-scoring.mismatch));
    const vec voe_del = TR::set1(static_cast<int16_t>(oe_del));
    const vec voe_ins = TR::set1(static_cast<int16_t>(oe_ins));
    const vec vge_del =
        TR::set1(static_cast<int16_t>(scoring.gap_extend_del));
    const vec vge_ins =
        TR::set1(static_cast<int16_t>(scoring.gap_extend_ins));

    const int ge_ins = scoring.gap_extend_ins;
    const detail::InsertionScan<TR> fscan(ge_ins);

    // Row 0 (mirrors the scalar fill exactly).
    h_prev[0] = 0;
    for (int j = 1; j <= qlen && j <= band; ++j) {
        f_prev[j] = static_cast<int16_t>(
            -(scoring.gap_open_ins + scoring.gap_extend_ins * j));
        h_prev[j] = f_prev[j];
        bh[j - (0 - band)] = kGotohFromF;
        bf[j - (0 - band)] = j > 1;
    }

    for (int i = 1; i <= tlen; ++i) {
        const int lo = std::max(0, i - band);
        const int hi = std::min(qlen, i + band);
        const int clear_lo = std::max(0, lo - 1);
        const int jstart = std::max(1, lo);
        std::fill(h_cur + clear_lo, h_cur + hi + 2, ninf);
        std::fill(e_cur + clear_lo, e_cur + hi + 2, ninf);
        std::fill(f_cur + clear_lo, f_cur + hi + 2, ninf);
        const size_t rowbase =
            static_cast<size_t>(i) * width - (i - band);
        if (lo == 0 && i <= band) {
            e_cur[0] = static_cast<int16_t>(
                -(scoring.gap_open_del + scoring.gap_extend_del * i));
            h_cur[0] = e_cur[0];
            bh[rowbase + 0] = kGotohFromE;
            be[rowbase + 0] = i > 1;
        }

        const int tcode = static_cast<int>(target[i - 1]);
        const bool tvalid = tcode < kNumBases;
        const vec vt = TR::set1(static_cast<int16_t>(tcode));

        // Pass 1: E channel (vertical, lane-parallel) + M/ME staging.
        for (int j0 = jstart; j0 <= hi; j0 += V) {
            const vec Hup = TR::loadu(h_prev + j0);
            const vec Eup = TR::loadu(e_prev + j0);
            const vec e_open = TR::subs(Hup, voe_del);
            const vec e_ext = TR::subs(Eup, vge_del);
            const vec Ecur = TR::max(e_open, e_ext);
            TR::storeu(e_cur + j0, Ecur);
            vec S = vmism;
            if (tvalid)
                S = TR::blend(TR::cmpeq(TR::loadu(Qc + j0), vt), vmatch,
                              vmism);
            const vec M = TR::adds(TR::loadu(h_prev + j0 - 1), S);
            TR::storeu(Mst + j0, M);
            TR::storeu(MEst + j0, TR::max(M, Ecur));
            TR::packStoreBytes(be + rowbase + j0,
                               TR::and_(TR::cmpgt(e_ext, e_open), vone),
                               std::min(V, hi - j0 + 1));
        }

        // Pass 2: F prefix scan, H, bh/bf flags.
        const int hl = h_cur[jstart - 1], fl = f_cur[jstart - 1];
        const int c0 = std::max(std::max(hl - oe_ins, INT16_MIN),
                                std::max(fl - ge_ins, INT16_MIN));
        uint32_t carry_b =
            static_cast<uint16_t>(static_cast<int16_t>(c0)) ^ 0x8000u;
        for (int j0 = jstart; j0 <= hi; j0 += V) {
            const vec F =
                fscan(TR::subs(TR::loadu(MEst + j0), voe_ins), carry_b);
            TR::storeu(f_cur + j0, F);
            const vec M = TR::loadu(Mst + j0);
            const vec ME = TR::loadu(MEst + j0);
            const vec Hnew = TR::max(ME, F);
            TR::storeu(h_cur + j0, Hnew);
            const vec mask_e = TR::cmpgt(TR::loadu(e_cur + j0), M);
            const vec mask_f = TR::cmpgt(F, ME);
            const vec bh16 =
                TR::or_(TR::and_(mask_f, vtwo),
                        TR::andnot(mask_f, TR::and_(mask_e, vone)));
            const int nvalid = std::min(V, hi - j0 + 1);
            TR::packStoreBytes(bh + rowbase + j0, bh16, nvalid);
            // bf compares against the true H[j-1] (both rows now final
            // through this block's lanes).
            const vec bf16 = TR::and_(
                TR::cmpgt(TR::subs(TR::loadu(f_cur + j0 - 1), vge_ins),
                          TR::subs(TR::loadu(h_cur + j0 - 1), voe_ins)),
                vone);
            TR::packStoreBytes(bf + rowbase + j0, bf16, nvalid);
        }

        // Tail stores clobbered lane hi+1; re-poison it so the next
        // row's top-edge (out-of-band) read sees the sentinel.
        h_cur[hi + 1] = ninf;
        e_cur[hi + 1] = ninf;
        std::swap(h_prev, h_cur);
        std::swap(e_prev, e_cur);
        std::swap(f_prev, f_cur);
    }

    out.score = h_prev[qlen];
    out.bh = bh;
    out.be = be;
    out.bf = bf;
    out.width = width;
    return true;
}

} // namespace kern
} // namespace seedex

#endif // SEEDEX_ALIGN_KERNEL_IMPL_H
