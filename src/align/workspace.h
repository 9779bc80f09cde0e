#ifndef SEEDEX_ALIGN_WORKSPACE_H
#define SEEDEX_ALIGN_WORKSPACE_H

#include <cstddef>
#include <cstdint>
#include <new>

#include "align/extend.h"

namespace seedex {

/**
 * Thread-local, arena-style scratch memory for every DP kernel.
 *
 * All alignment kernels (the banded extension engine, the full Gotoh
 * grid, the banded-global score pass, the SeedEx edit checks and the
 * behavioural hardware models) draw their H/E/F rows, backpointer grids
 * and SIMD staging buffers from here instead of heap-allocating per
 * call. Buffers are sized once per thread (growing monotonically to the
 * high-water mark of the workload) and reused across calls, so the
 * steady-state extension path performs zero heap allocations.
 *
 * Each named slot belongs to exactly one algorithm; kernels that run
 * back-to-back (e.g. the SeedEx filter's narrow-band pass followed by
 * the edit check) use disjoint slots, so no call can clobber a buffer a
 * caller still holds. Kernels must treat slot contents as garbage on
 * entry — reuse means nothing is zeroed between calls.
 *
 * Growth events are counted (and exported as `align.workspace.*`
 * metrics) so tests can assert the steady state allocates nothing.
 */
class DpWorkspace
{
  public:
    /** One growable 64-byte-aligned allocation. */
    class Buf
    {
      public:
        Buf() = default;
        Buf(const Buf &) = delete;
        Buf &operator=(const Buf &) = delete;
        ~Buf();

        void *data() const { return data_; }
        size_t capacityBytes() const { return cap_; }

      private:
        friend class DpWorkspace;
        void *data_ = nullptr;
        size_t cap_ = 0;
    };

    DpWorkspace() = default;
    DpWorkspace(const DpWorkspace &) = delete;
    DpWorkspace &operator=(const DpWorkspace &) = delete;

    /** The calling thread's workspace (created on first use, lives for
     *  the thread's lifetime). */
    static DpWorkspace &tls();

    /**
     * Pointer to at least `count` elements of T in `buf`, 64-byte
     * aligned. Grows geometrically (counted as a grow event); existing
     * contents are NOT preserved across a grow.
     */
    template <typename T>
    T *
    ensure(Buf &buf, size_t count)
    {
        const size_t bytes = count * sizeof(T);
        if (bytes > buf.cap_)
            grow(buf, bytes);
        return static_cast<T *>(buf.data_);
    }

    /**
     * Pre-size the extension-kernel slots for queries/targets up to the
     * given lengths so the first extension on this thread pays no growth
     * (threaded workers call this once at startup).
     */
    void prepareExtension(size_t max_qlen, size_t max_tlen);

    /** Buffer-growth events on this workspace (0 in steady state). */
    uint64_t growEvents() const { return grow_events_; }

    /** Total bytes currently reserved across all slots. */
    size_t bytesReserved() const { return bytes_reserved_; }

    // ---- Named slots (one owner each; see the owning .cc files).
    /** Banded extension: scalar H/E rolling rows (int32). */
    Buf ext_h32, ext_e32;
    /** Banded extension: SIMD H(prev)/H(cur)/E rows + widened query and
     *  per-row score staging (int16). */
    Buf ext_h16a, ext_h16b, ext_e16, ext_q16, ext_t16;
    /** Band-edge E trace reused by the SeedEx filter's narrow pass. */
    BandEdgeTrace edge_trace;
    /** Banded global (Gotoh) fill: rolling score rows + compact
     *  backpointer grids. */
    Buf gotoh_rows, gotoh_bh, gotoh_be, gotoh_bf;
    /** Full Gotoh grid (alignFull): H/E/F + three backpointer planes. */
    Buf full_h, full_e, full_f, full_bh, full_be, full_bf;
    /** SeedEx edit check (checks.cc): two rolling rows. */
    Buf check_rows;
    /** Edit-machine delta model (hw/edit_machine.cc): two value rows. */
    Buf edit_machine;
    /** Speculation sweep of the systolic model (kern::speculation*):
     *  the scalar tier's skewed H/E row or the vector tiers' int16
     *  rows. */
    Buf systolic;

  private:
    void grow(Buf &buf, size_t min_bytes);

    uint64_t grow_events_ = 0;
    size_t bytes_reserved_ = 0;
};

} // namespace seedex

#endif // SEEDEX_ALIGN_WORKSPACE_H
