#include "align/kernel.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

#include "obs/log.h"
#include "obs/metrics.h"

namespace seedex {

namespace {

constexpr int kNegInf = std::numeric_limits<int>::min() / 4;

/** Per-kernel instruments (see DESIGN.md §8): calls per ISA tier,
 *  int16→int32 overflow escapes, DP cells swept, and per-tier call
 *  latency. References are cached; hot-path updates are relaxed
 *  atomics. */
struct KernelMetrics
{
    obs::Counter *dispatch[3];
    obs::LatencyHistogram *seconds[3];
    obs::Counter &escapes = obs::MetricsRegistry::global().counter(
        "align.kernel.overflow_escape");
    obs::Counter &cells =
        obs::MetricsRegistry::global().counter("align.kernel.cells");
    obs::LatencyHistogram &gotoh_seconds =
        obs::MetricsRegistry::global().histogram(
            "align.kernel.gotoh.seconds");

    KernelMetrics()
    {
        obs::MetricsRegistry &reg = obs::MetricsRegistry::global();
        for (int i = 0; i < 3; ++i) {
            const std::string isa =
                kernelIsaName(static_cast<KernelIsa>(i));
            dispatch[i] =
                &reg.counter("align.kernel.dispatch." + isa);
            seconds[i] =
                &reg.histogram("align.kernel." + isa + ".seconds");
        }
    }
};

KernelMetrics &
kernelMetrics()
{
    static KernelMetrics metrics;
    return metrics;
}

/** Widest tier both compiled in and supported by this CPU. */
KernelIsa
bestSupportedIsa()
{
#if defined(__x86_64__) || defined(__i386__)
    if (kern::avx2Compiled() && __builtin_cpu_supports("avx2"))
        return KernelIsa::Avx2;
    if (kern::sseCompiled() && __builtin_cpu_supports("sse4.1"))
        return KernelIsa::Sse;
#endif
    return KernelIsa::Scalar;
}

KernelIsa
resolveDispatch()
{
    const KernelIsa best = bestSupportedIsa();
    const char *env = std::getenv("SEEDEX_KERNEL");
    if (env == nullptr || *env == '\0' ||
        std::string(env) == "auto")
        return best;
    const std::string want(env);
    KernelIsa forced = best;
    if (want == "scalar") {
        forced = KernelIsa::Scalar;
    } else if (want == "sse") {
        forced = KernelIsa::Sse;
    } else if (want == "avx2") {
        forced = KernelIsa::Avx2;
    } else {
        SEEDEX_LOG(Warn, "kernel",
                   "SEEDEX_KERNEL='%s' not recognized "
                   "(scalar|sse|avx2|auto); using %s",
                   env, kernelIsaName(best));
        return best;
    }
    if (static_cast<int>(forced) > static_cast<int>(best)) {
        SEEDEX_LOG(Warn, "kernel",
                   "SEEDEX_KERNEL=%s unavailable on this host/build; "
                   "falling back to %s",
                   want.c_str(), kernelIsaName(best));
        return best;
    }
    return forced;
}

thread_local uint64_t t_last_cells = 0;

} // namespace

namespace kern {

uint64_t
lastCellCount()
{
    return t_last_cells;
}

void
setLastCellCount(uint64_t cells)
{
    t_last_cells = cells;
}

#ifndef SEEDEX_HAVE_SSE41
bool
sseCompiled()
{
    return false;
}

bool
extendSse(const Sequence &, const Sequence &, int, const ExtendConfig &,
          DpWorkspace &, ExtendResult &)
{
    return false;
}

bool
gotohFillSse(const Sequence &, const Sequence &, const Scoring &, int,
             DpWorkspace &, GotohFill &)
{
    return false;
}

bool
speculationSse(const Sequence &, const Sequence &, int, const Scoring &,
               int, DpWorkspace &, bool &)
{
    return false;
}
#endif

#ifndef SEEDEX_HAVE_AVX2
bool
avx2Compiled()
{
    return false;
}

bool
extendAvx2(const Sequence &, const Sequence &, int, const ExtendConfig &,
           DpWorkspace &, ExtendResult &)
{
    return false;
}

bool
gotohFillAvx2(const Sequence &, const Sequence &, const Scoring &, int,
              DpWorkspace &, GotohFill &)
{
    return false;
}

bool
speculationAvx2(const Sequence &, const Sequence &, int, const Scoring &,
                int, DpWorkspace &, bool &)
{
    return false;
}
#endif

ExtendResult
extendScalar(const Sequence &query, const Sequence &target, int h0,
             const ExtendConfig &config, DpWorkspace &ws)
{
    const int qlen = static_cast<int>(query.size());
    const int tlen = static_cast<int>(target.size());
    const Scoring &s = config.scoring;
    const int oe_del = s.gap_open_del + s.gap_extend_del;
    const int oe_ins = s.gap_open_ins + s.gap_extend_ins;
    const long w = std::min<long>(config.band, qlen + tlen + 1);

    ExtendResult res;
    res.score = h0;

    // Row "-1": pure-insertion prefix of the query, stored skewed (slot
    // j holds { H(i-1, j-1), E(i, j) }, the ksw_extend layout).
    int32_t *h = ws.ensure<int32_t>(ws.ext_h32, qlen + 2);
    int32_t *e = ws.ensure<int32_t>(ws.ext_e32, qlen + 2);
    std::fill(h, h + qlen + 1, 0);
    std::fill(e, e + qlen + 1, 0);
    h[0] = h0;
    if (qlen >= 1)
        h[1] = h0 > oe_ins ? h0 - oe_ins : 0;
    for (int j = 2; j <= qlen && h[j - 1] > s.gap_extend_ins; ++j)
        h[j] = h[j - 1] - s.gap_extend_ins;

    int max = h0, max_i = -1, max_j = -1, max_off = 0;
    int gscore = -1, max_ie = -1;
    int beg = 0, end = qlen;
    uint64_t cells = 0;

    for (int i = 0; i < tlen; ++i) {
        int f = 0, h1, m = 0, mj = -1;
        // Apply the band.
        if (beg < i - w)
            beg = static_cast<int>(i - w);
        if (end > i + w + 1)
            end = static_cast<int>(i + w + 1);
        if (end > qlen)
            end = qlen;
        // First column: pure-deletion prefix of the target.
        if (beg == 0) {
            h1 = h0 - (s.gap_open_del + s.gap_extend_del * (i + 1));
            if (h1 < 0)
                h1 = 0;
        } else {
            h1 = 0;
        }
        cells += static_cast<uint64_t>(end - beg);
        for (int j = beg; j < end; ++j) {
            // Invariant: h[j] = H(i-1,j-1), e[j] = E(i,j), f = F(i,j),
            // h1 = H(i,j-1).
            int hh, M = h[j], ee = e[j];
            h[j] = h1; // becomes H(i,j-1) for the next row's diagonal
            // Zero H blocks diagonal restarts (BWA: disallow alignments
            // resuming through dead cells, keeps CIGARs canonical).
            M = M ? M + s.score(target[i], query[j]) : 0;
            hh = M > ee ? M : ee;
            hh = hh > f ? hh : f;
            h1 = hh;
            mj = m > hh ? mj : j;
            m = m > hh ? m : hh;
            // E(i+1,j): deletion channel, floored at zero.
            int t = M - oe_del;
            t = t > 0 ? t : 0;
            ee -= s.gap_extend_del;
            ee = ee > t ? ee : t;
            e[j] = ee;
            // F(i,j+1): insertion channel, floored at zero.
            t = M - oe_ins;
            t = t > 0 ? t : 0;
            f -= s.gap_extend_ins;
            f = f > t ? f : t;
        }
        h[end] = h1;
        e[end] = 0;

        // Export the E value crossing the band's lower boundary: after
        // row i = j + w, slot j = i - w holds E(i+1, j) = E(j+w+1, j).
        if (config.edge_trace && i - w >= beg && i - w < end)
            config.edge_trace->boundary_e[i - w] = e[i - w];

        if (end == qlen) { // query fully consumed: semi-global candidate
            if (gscore < h1) {
                gscore = h1;
                max_ie = i;
            }
        }
        if (m == 0)
            break;
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
                    res.zdropped = true;
                    break;
                }
            } else {
                if (max - m -
                        ((mj - max_j) - (i - max_i)) * s.gap_extend_ins >
                    config.zdrop) {
                    res.zdropped = true;
                    break;
                }
            }
        }
        // Trim the live interval: drop leading/trailing dead (H=E=0)
        // cells; keep two slack columns past the last live one. This is
        // the software "early termination" the paper reproduces in
        // hardware speculatively (§IV-A).
        int j = beg;
        while (j < end && h[j] == 0 && e[j] == 0)
            ++j;
        beg = j;
        j = end;
        while (j >= beg && h[j] == 0 && e[j] == 0)
            --j;
        end = j + 2 < qlen ? j + 2 : qlen;
    }

    setLastCellCount(cells);
    res.score = max;
    res.qle = max_j + 1;
    res.tle = max_i + 1;
    res.gscore = gscore;
    res.gtle = max_ie + 1;
    res.max_off = max_off;
    return res;
}

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
speculationScalar(const Sequence &query, const Sequence &target, int h0,
                  const Scoring &s, int w, DpWorkspace &ws)
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

GotohFill
gotohFillScalar(const Sequence &query, const Sequence &target,
                const Scoring &scoring, int band, DpWorkspace &ws)
{
    const int qlen = static_cast<int>(query.size());
    const int tlen = static_cast<int>(target.size());
    const int width = 2 * band + 1;
    const int oe_del = scoring.gap_open_del + scoring.gap_extend_del;
    const int oe_ins = scoring.gap_open_ins + scoring.gap_extend_ins;

    const size_t grid = static_cast<size_t>(tlen + 1) * width;
    uint8_t *bh = ws.ensure<uint8_t>(ws.gotoh_bh, grid);
    uint8_t *be = ws.ensure<uint8_t>(ws.gotoh_be, grid);
    uint8_t *bf = ws.ensure<uint8_t>(ws.gotoh_bf, grid);
    std::memset(bh, kGotohFromStart, grid);
    std::memset(be, 0, grid);
    std::memset(bf, 0, grid);
    auto at = [&](int i, int j) {
        // Column j lives at offset j - (i - band) within row i's slice.
        return static_cast<size_t>(i) * width + (j - (i - band));
    };
    auto inBand = [&](int i, int j) {
        return j >= i - band && j <= i + band;
    };

    // Six rolling rows carved from one slot.
    const size_t row = static_cast<size_t>(qlen) + 2;
    int *rows = ws.ensure<int>(ws.gotoh_rows, 6 * row);
    int *h_prev = rows, *e_prev = rows + row, *f_prev = rows + 2 * row;
    int *h_cur = rows + 3 * row, *e_cur = rows + 4 * row;
    int *f_cur = rows + 5 * row;
    std::fill(rows, rows + 6 * row, kNegInf);

    // Row 0.
    h_prev[0] = 0;
    for (int j = 1; j <= qlen && j <= band; ++j) {
        f_prev[j] = -(scoring.gap_open_ins + scoring.gap_extend_ins * j);
        h_prev[j] = f_prev[j];
        bh[at(0, j)] = kGotohFromF;
        bf[at(0, j)] = j > 1;
    }

    for (int i = 1; i <= tlen; ++i) {
        const int lo = std::max(0, i - band);
        const int hi = std::min(qlen, i + band);
        // Clear one column left of the band too: the F/H reads at j = lo
        // must not see stale values from row i-2 (the rolling buffers).
        const int clear_lo = std::max(0, lo - 1);
        std::fill(h_cur + clear_lo, h_cur + hi + 1, kNegInf);
        std::fill(e_cur + clear_lo, e_cur + hi + 1, kNegInf);
        std::fill(f_cur + clear_lo, f_cur + hi + 1, kNegInf);
        if (lo == 0 && i <= band) {
            e_cur[0] =
                -(scoring.gap_open_del + scoring.gap_extend_del * i);
            h_cur[0] = e_cur[0];
            bh[at(i, 0)] = kGotohFromE;
            be[at(i, 0)] = i > 1;
        }
        for (int j = std::max(1, lo); j <= hi; ++j) {
            const size_t k = at(i, j);
            const int up_h = inBand(i - 1, j) ? h_prev[j] : kNegInf;
            const int up_e = inBand(i - 1, j) ? e_prev[j] : kNegInf;
            const int e_open = up_h - oe_del;
            const int e_ext = up_e - scoring.gap_extend_del;
            e_cur[j] = std::max(e_open, e_ext);
            be[k] = e_ext > e_open;

            const int f_open = h_cur[j - 1] - oe_ins;
            const int f_ext = f_cur[j - 1] - scoring.gap_extend_ins;
            f_cur[j] = std::max(f_open, f_ext);
            bf[k] = f_ext > f_open;

            const int diag_h =
                inBand(i - 1, j - 1) ? h_prev[j - 1] : kNegInf;
            const int m =
                diag_h + scoring.score(target[i - 1], query[j - 1]);
            int h = m;
            uint8_t src = kGotohFromDiag;
            if (e_cur[j] > h) {
                h = e_cur[j];
                src = kGotohFromE;
            }
            if (f_cur[j] > h) {
                h = f_cur[j];
                src = kGotohFromF;
            }
            h_cur[j] = h;
            bh[k] = src;
        }
        std::swap(h_prev, h_cur);
        std::swap(e_prev, e_cur);
        std::swap(f_prev, f_cur);
    }

    GotohFill out;
    out.score = h_prev[qlen];
    out.bh = bh;
    out.be = be;
    out.bf = bf;
    out.width = width;
    return out;
}

} // namespace kern

const char *
kernelIsaName(KernelIsa isa)
{
    switch (isa) {
      case KernelIsa::Scalar: return "scalar";
      case KernelIsa::Sse: return "sse";
      case KernelIsa::Avx2: return "avx2";
    }
    return "scalar";
}

KernelIsa
kernelDispatch()
{
    static const KernelIsa isa = [] {
        const KernelIsa resolved = resolveDispatch();
        SEEDEX_LOG(Info, "kernel", "banded-extension engine: %s "
                   "(compiled: scalar%s%s)",
                   kernelIsaName(resolved),
                   kern::sseCompiled() ? ", sse" : "",
                   kern::avx2Compiled() ? ", avx2" : "");
        return resolved;
    }();
    return isa;
}

const std::vector<KernelIsa> &
availableKernelIsas()
{
    static const std::vector<KernelIsa> isas = [] {
        std::vector<KernelIsa> v{KernelIsa::Scalar};
        const KernelIsa best = bestSupportedIsa();
        if (static_cast<int>(best) >= static_cast<int>(KernelIsa::Sse))
            v.push_back(KernelIsa::Sse);
        if (best == KernelIsa::Avx2)
            v.push_back(KernelIsa::Avx2);
        return v;
    }();
    return isas;
}

ExtendResult
bandedExtend(const Sequence &query, const Sequence &target, int h0,
             const ExtendConfig &config, KernelIsa isa)
{
    assert(h0 > 0);
    ExtendResult res;
    res.score = h0;
    if (query.empty() || target.empty()) {
        kern::setLastCellCount(0);
        return res;
    }
    if (config.edge_trace)
        config.edge_trace->boundary_e.assign(query.size(), 0);

    DpWorkspace &ws = DpWorkspace::tls();
    if (isa == KernelIsa::Avx2 &&
        kern::extendAvx2(query, target, h0, config, ws, res))
        return res;
    if (isa == KernelIsa::Sse &&
        kern::extendSse(query, target, h0, config, ws, res))
        return res;
    if (isa != KernelIsa::Scalar)
        kernelMetrics().escapes.inc();
    return kern::extendScalar(query, target, h0, config, ws);
}

ExtendResult
bandedExtend(const Sequence &query, const Sequence &target, int h0,
             const ExtendConfig &config)
{
    const KernelIsa isa = kernelDispatch();
    KernelMetrics &m = kernelMetrics();
    const auto t0 = std::chrono::steady_clock::now();
    const ExtendResult res = bandedExtend(query, target, h0, config, isa);
    const std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - t0;
    const int tier = static_cast<int>(isa);
    m.dispatch[tier]->inc();
    m.seconds[tier]->observe(dt.count());
    m.cells.inc(kern::lastCellCount());
    return res;
}

bool
speculationException(const Sequence &query, const Sequence &target,
                     int h0, const Scoring &scoring, int band,
                     KernelIsa isa)
{
    DpWorkspace &ws = DpWorkspace::tls();
    bool exception = false;
    if (isa == KernelIsa::Avx2 &&
        kern::speculationAvx2(query, target, h0, scoring, band, ws,
                              exception))
        return exception;
    if (isa == KernelIsa::Sse &&
        kern::speculationSse(query, target, h0, scoring, band, ws,
                             exception))
        return exception;
    return kern::speculationScalar(query, target, h0, scoring, band, ws);
}

bool
speculationException(const Sequence &query, const Sequence &target,
                     int h0, const Scoring &scoring, int band)
{
    return speculationException(query, target, h0, scoring, band,
                                kernelDispatch());
}

GotohFill
gotohBandedFill(const Sequence &query, const Sequence &target,
                const Scoring &scoring, int band, KernelIsa isa)
{
    DpWorkspace &ws = DpWorkspace::tls();
    GotohFill out;
    if (isa == KernelIsa::Avx2 &&
        kern::gotohFillAvx2(query, target, scoring, band, ws, out))
        return out;
    if (isa == KernelIsa::Sse &&
        kern::gotohFillSse(query, target, scoring, band, ws, out))
        return out;
    if (isa != KernelIsa::Scalar)
        kernelMetrics().escapes.inc();
    return kern::gotohFillScalar(query, target, scoring, band, ws);
}

GotohFill
gotohBandedFill(const Sequence &query, const Sequence &target,
                const Scoring &scoring, int band)
{
    KernelMetrics &m = kernelMetrics();
    const auto t0 = std::chrono::steady_clock::now();
    const GotohFill out =
        gotohBandedFill(query, target, scoring, band, kernelDispatch());
    const std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - t0;
    m.gotoh_seconds.observe(dt.count());
    return out;
}

} // namespace seedex
