#ifndef SEEDEX_HW_EDIT_MACHINE_H
#define SEEDEX_HW_EDIT_MACHINE_H

#include <cstdint>

#include "align/scoring.h"
#include "genome/sequence.h"
#include "seedex/checks.h"

namespace seedex {

/** Telemetry from one edit-machine run. */
struct EditMachineStats
{
    /** Cells the half-width PE array evaluated. */
    uint64_t cells = 0;
    /** Modeled cycles (anti-diagonal sweeps plus init/drain). */
    uint64_t cycles = 0;
    /** dmax comparisons whose operands exceeded the modulo-circle bound
     *  (must be zero for the 3-bit datapath to be valid). */
    uint64_t delta_violations = 0;
    /** Full-width decodes performed by the augmentation unit. */
    uint64_t augment_decodes = 0;
};

/**
 * Behavioural model of the SeedEx edit-machine core (§IV-B).
 *
 * Functionally it computes the same trapezoid check as editCheck(); the
 * model additionally executes every comparison through 3-bit
 * DeltaCodec residues (with a full-width shadow value used only to
 * *verify* each residue decision) and routes full-width reads through a
 * single augmentation unit, so the test suite can prove the reduced
 * datapath loses nothing. The relaxed scoring's zero-penalty insertion is
 * what keeps every row's running maximum reachable by the one
 * augmentation unit (scores propagate horizontally for free).
 */
class EditMachine
{
  public:
    /**
     * @param w Narrow-band half-width of the paired BSW cores.
     * @param relaxed The optimistic scheme (3-bit encodable).
     */
    explicit EditMachine(int w,
                         Scoring relaxed = Scoring::relaxedEdit())
        : w_(w), relaxed_(relaxed)
    {}

    /**
     * Run the trapezoid check.
     * @param affine The true scoring scheme (left-edge initialization and
     *               match reward of the exit bound).
     * @param stats Optional telemetry sink.
     */
    EditCheckResult run(const Sequence &query, const Sequence &target,
                        int h0, const Scoring &affine,
                        EditMachineStats *stats = nullptr) const;

    int band() const { return w_; }

    /** Modeled cycles of one run() over a target of `tlen` bases: init
     *  (w) + one sweep per trapezoid row (tlen - w - 1) + drain (8); 0
     *  when the trapezoid is empty (tlen < w + 2). Depends on nothing
     *  else, so the device model charges it without running the check. */
    uint64_t
    cycles(int tlen) const
    {
        if (tlen < w_ + 2)
            return 0;
        return static_cast<uint64_t>(w_) +
               static_cast<uint64_t>(tlen - w_ - 1) + kDrainCycles;
    }

    static constexpr int kDrainCycles = 8;

  private:
    int w_;
    Scoring relaxed_;
};

} // namespace seedex

#endif // SEEDEX_HW_EDIT_MACHINE_H
