#ifndef SEEDEX_ALIGN_KERNEL_H
#define SEEDEX_ALIGN_KERNEL_H

#include <cstdint>
#include <vector>

#include "align/extend.h"
#include "align/scoring.h"
#include "align/workspace.h"
#include "genome/sequence.h"

namespace seedex {

/**
 * Instruction-set tiers of the banded-extension engine.
 *
 * Each tier is a separately compiled translation unit (kernel_sse.cc,
 * kernel_avx2.cc) built with the matching -m flags; the dispatcher picks
 * the widest tier the host CPU supports at first use, overridable with
 * `SEEDEX_KERNEL=scalar|sse|avx2`. The same tier runs
 * the banded extension, the banded-global fill and the device model's
 * speculation sweep. Every tier is bit-exact with the scalar reference
 * on all ExtendResult fields AND on the band-edge E trace the SeedEx
 * optimality checks consume — the speculation-and-test guarantee
 * (PAPER.md §3) is defined against exact DP values, so a vector kernel
 * that is merely "close" would corrupt the accept/rerun decision.
 */
enum class KernelIsa : int
{
    Scalar = 0,
    Sse = 1,  ///< SSE4.1, 8 × int16 lanes
    Avx2 = 2, ///< AVX2, 16 × int16 lanes
};

/** Lower-case tier name ("scalar", "sse", "avx2"). */
const char *kernelIsaName(KernelIsa isa);

/** The tier the dispatcher resolved for this process (CPU features ∩
 *  compiled tiers, overridden by SEEDEX_KERNEL). Resolved once. */
KernelIsa kernelDispatch();

/** Tiers compiled into this binary and usable on this CPU, widest
 *  last (tests and benches iterate these for differential checks). */
const std::vector<KernelIsa> &availableKernelIsas();

/**
 * Banded semi-global extension (ksw_extend semantics; see
 * align/extend.h for the full contract) executed on a specific tier.
 * Vector tiers run saturating int16 lanes and escape to the scalar
 * int32 path when `h0 + qlen*match` could leave the safe int16 range,
 * so results are identical at every h0. Scratch memory comes from the
 * calling thread's DpWorkspace; nothing is heap-allocated.
 */
ExtendResult bandedExtend(const Sequence &query, const Sequence &target,
                          int h0, const ExtendConfig &config,
                          KernelIsa isa);

/** bandedExtend on the dispatched tier, with per-kernel instruments
 *  (`align.kernel.*`). This is what kswExtend forwards to. */
ExtendResult bandedExtend(const Sequence &query, const Sequence &target,
                          int h0, const ExtendConfig &config);

/**
 * Speculative row-termination check of the systolic BSW array (§IV-A;
 * the exception flag of SystolicBswCore::model) on a specific tier.
 * Sweeps the whole, untrimmed band of half-width `band` row by row and
 * returns true at the first row whose live cells (H > 0) the array's
 * two-dead-cells terminator would have cut short: two consecutive dead
 * cells after the row's first live cell past the progressive-init
 * island, followed by another live cell. Vector tiers escape to the
 * scalar int32 sweep above the int16 guard and for band rows wider
 * than they take, so the answer is identical on every tier. Scratch
 * memory comes from the calling thread's DpWorkspace.
 */
bool speculationException(const Sequence &query, const Sequence &target,
                          int h0, const Scoring &scoring, int band,
                          KernelIsa isa);

/** speculationException on the dispatched tier (no `align.kernel.*`
 *  instruments: the sweep models the device, it is not host DP). */
bool speculationException(const Sequence &query, const Sequence &target,
                          int h0, const Scoring &scoring, int band);

/** Backpointer codes of the Gotoh grids (shared by the banded fill
 *  tiers here and the full grid / tracebacks in align/dp.cc). */
enum : uint8_t
{
    kGotohFromDiag = 0,
    kGotohFromE = 1,
    kGotohFromF = 2,
    kGotohFromStart = 3, ///< unfilled cell; traceback stops
};

/**
 * Output of the banded-global (Gotoh) score pass: the compact
 * backpointer grids live in the workspace slots `gotoh_bh/be/bf` at
 * `(tlen+1) × width` (width = 2*band+1, column j at offset
 * j - (i - band) in row i), and `score` is H(tlen, qlen). The caller
 * (globalAlignBanded) owns the traceback.
 */
struct GotohFill
{
    int score = 0;
    const uint8_t *bh = nullptr;
    const uint8_t *be = nullptr;
    const uint8_t *bf = nullptr;
    int width = 0;
};

/** Banded-global score pass on a specific tier (same bit-exactness
 *  contract: identical score and identical backpointers on every cell a
 *  traceback can reach). `band` must admit the corner. */
GotohFill gotohBandedFill(const Sequence &query, const Sequence &target,
                          const Scoring &scoring, int band, KernelIsa isa);

/** gotohBandedFill on the dispatched tier. */
GotohFill gotohBandedFill(const Sequence &query, const Sequence &target,
                          const Scoring &scoring, int band);

namespace kern {

/**
 * Internal per-tier entry points (defined in kernel.cc /
 * kernel_sse.cc / kernel_avx2.cc). The int16 tiers return false when
 * the score range fails the overflow guard, in which case the
 * dispatcher escapes to the scalar path.
 */
ExtendResult extendScalar(const Sequence &query, const Sequence &target,
                          int h0, const ExtendConfig &config,
                          DpWorkspace &ws);
bool extendSse(const Sequence &query, const Sequence &target, int h0,
               const ExtendConfig &config, DpWorkspace &ws,
               ExtendResult &out);
bool extendAvx2(const Sequence &query, const Sequence &target, int h0,
                const ExtendConfig &config, DpWorkspace &ws,
                ExtendResult &out);

/** Scalar speculation sweep: the reference tier. The vector tiers
 *  return false when they do not take the job (int16 guard, row width)
 *  and leave `exception` untouched. */
bool speculationScalar(const Sequence &query, const Sequence &target,
                       int h0, const Scoring &s, int w, DpWorkspace &ws);
bool speculationSse(const Sequence &query, const Sequence &target, int h0,
                    const Scoring &scoring, int band, DpWorkspace &ws,
                    bool &exception);
bool speculationAvx2(const Sequence &query, const Sequence &target, int h0,
                     const Scoring &scoring, int band, DpWorkspace &ws,
                     bool &exception);

GotohFill gotohFillScalar(const Sequence &query, const Sequence &target,
                          const Scoring &scoring, int band,
                          DpWorkspace &ws);
bool gotohFillSse(const Sequence &query, const Sequence &target,
                  const Scoring &scoring, int band, DpWorkspace &ws,
                  GotohFill &out);
bool gotohFillAvx2(const Sequence &query, const Sequence &target,
                   const Scoring &scoring, int band, DpWorkspace &ws,
                   GotohFill &out);

/** True when the per-tier TU was compiled in (CMake feature gates). */
bool sseCompiled();
bool avx2Compiled();

/** DP cells swept by the most recent kernel call on this thread (the
 *  GCells/s numerator; read by the dispatcher's instruments). */
uint64_t lastCellCount();
void setLastCellCount(uint64_t cells);

} // namespace kern

} // namespace seedex

#endif // SEEDEX_ALIGN_KERNEL_H
