#ifndef SEEDEX_HW_SYSTOLIC_H
#define SEEDEX_HW_SYSTOLIC_H

#include <cstdint>

#include "align/extend.h"
#include "genome/sequence.h"

namespace seedex {

/** Telemetry of one extension executed on the systolic BSW core model. */
struct BswCoreStats
{
    /** Modeled cycles: shift-register/progressive init (prop. to band) +
     *  one anti-diagonal per cycle + accumulator drain. */
    uint64_t cycles = 0;
    /** Target rows the array marched over before early termination. */
    int rows_processed = 0;
    /** True if the speculative early-termination raised the exception
     *  flag (a positive score flowed into a speculatively terminated row
     *  interval, §IV-A): the extension must be rerun on the host. */
    bool early_term_exception = false;
};

/**
 * Behavioural model of the BSW systolic core (Fig. 8).
 *
 * The functional result is exactly kswExtend (the array computes the same
 * recurrence; data marches through Query/Reference shift registers while
 * PE groups walk the main diagonal). What the model adds is the
 * hardware's timing and its one semantic deviation: the row-trimming
 * "early termination" must be decided speculatively because the systolic
 * array processes multiple rows in flight, so the model detects inputs
 * whose live interval is non-contiguous (a positive score appears beyond
 * two consecutive dead cells) and raises the exception flag, exactly the
 * rerun trigger the paper describes.
 */
class SystolicBswCore
{
  public:
    /**
     * @param w Band half-width (the array has w+1 PEs: one anti-diagonal
     *          of the band per cycle).
     * @param scoring Affine scheme implemented by the PEs.
     */
    SystolicBswCore(int w, Scoring scoring = Scoring::bwaDefault())
        : w_(w), scoring_(scoring)
    {}

    /** Execute one extension; also exports band-edge E values when
     *  `trace` is non-null (they feed the SeedEx check logic). Equal to
     *  kswExtend at this band followed by model(). */
    ExtendResult run(const Sequence &query, const Sequence &target, int h0,
                     BswCoreStats *stats = nullptr,
                     BandEdgeTrace *trace = nullptr) const;

    /**
     * Timing and exception model of one extension whose kernel result is
     * already known: fills `stats` (cycles, rows, speculative exception)
     * exactly as run() would, without running the kernel again.
     * `result` must be kswExtend's result at this core's band and
     * scoring with Z-drop disabled (e.g. a SeedEx filter rung's narrow
     * result at the same band).
     */
    void model(const Sequence &query, const Sequence &target, int h0,
               const ExtendResult &result, BswCoreStats *stats) const;

    int band() const { return w_; }
    int peCount() const { return w_ + 1; }

    /**
     * Latency in cycles of one extension on this core given the row count
     * it sweeps (used by the throughput model without re-simulating):
     * shift-register/progressive init (w+1) + anti-diagonals
     * (rows + min(w, qlen)) + score-accumulator reduction, which also
     * scales with the PE count (§VII-A: "buffer initialization ... and
     * result accumulation time scales proportionally to the band size",
     * behind the reported 1.9x latency gap).
     */
    uint64_t
    latencyCycles(int rows, int qlen) const
    {
        const int diag_tail = std::min(w_, qlen);
        const int drain = kDrainCycles + (w_ + 1) / 2;
        return static_cast<uint64_t>(w_ + 1) +
               static_cast<uint64_t>(rows) +
               static_cast<uint64_t>(diag_tail) +
               static_cast<uint64_t>(drain);
    }

    static constexpr int kDrainCycles = 8;

  private:
    int w_;
    Scoring scoring_;
};

} // namespace seedex

#endif // SEEDEX_HW_SYSTOLIC_H
