#ifndef SEEDEX_HW_THROUGHPUT_MODEL_H
#define SEEDEX_HW_THROUGHPUT_MODEL_H

#include <cstdint>
#include <vector>

#include "hw/area_model.h"
#include "hw/systolic.h"

namespace seedex {

/** One seed-extension job as the accelerator sees it. */
struct ExtensionJob
{
    Sequence query;
    Sequence target;
    int h0 = 1;
};

/** Measured shape of a batch of extensions (drives the cycle model). */
struct WorkloadProfile
{
    double avg_query_len = 0;
    double avg_rows = 0; ///< target rows swept before early termination
    uint64_t jobs = 0;

    /** Profile a workload by running the narrow-band kernel. */
    static WorkloadProfile measure(const std::vector<ExtensionJob> &jobs,
                                   int w, const Scoring &scoring);
};

/** Deployment description of one accelerator configuration. */
struct AcceleratorConfig
{
    /** Band half-width of each BSW core. */
    int w = 41;
    /** Total BSW cores on the device (paper: 36 narrow / 9 full-band;
     *  the full-band count is routability-limited, §VII-A). */
    int bsw_cores = 36;
    /** Edit-machine cores (3:1 BSW:edit provisioning). */
    int edit_cores = 12;
    /** Extension clock (8 ns in the paper's F1 image). */
    double clock_hz = 125e6;
    /** Fraction of extensions rerun on the host (checks failed). */
    double rerun_fraction = 0.02;

    /** The paper's deployed SeedEx image. */
    static AcceleratorConfig
    seedexDeployed()
    {
        return {};
    }

    /** The full-band baseline image (9 cores of w=101). */
    static AcceleratorConfig
    fullBandBaseline()
    {
        AcceleratorConfig c;
        c.w = 101;
        c.bsw_cores = 9;
        c.edit_cores = 0;
        c.rerun_fraction = 0.0;
        return c;
    }
};

/** Outputs of the throughput model for one configuration. */
struct ThroughputReport
{
    double cycles_per_extension = 0;
    double latency_us = 0;
    /** Raw device throughput, extensions per second. */
    double extensions_per_sec = 0;
    /** LUTs consumed by the compute cores. */
    uint64_t compute_luts = 0;
    /** Throughput normalized per million LUTs (the iso-area metric). */
    double ext_per_sec_per_mlut = 0;
};

/**
 * Accelerator throughput model (§V, §VII-A).
 *
 * Prefetching fully hides the 40-cycle AXI read latency behind the
 * ~100-cycle compute latency (the paper reports near-100 % core
 * utilization and linear scaling with clusters), so device throughput is
 * cores x clock / cycles-per-extension; reruns are overlapped on the host
 * and only subtract their share of accelerator output.
 */
class ThroughputModel
{
  public:
    explicit ThroughputModel(AreaModel areas = {}) : areas_(areas) {}

    ThroughputReport evaluate(const AcceleratorConfig &config,
                              const WorkloadProfile &profile) const;

    /** Iso-area speedup of `a` over `b` on the same workload profile. */
    double
    isoAreaSpeedup(const ThroughputReport &a, const ThroughputReport &b) const
    {
        return a.ext_per_sec_per_mlut / b.ext_per_sec_per_mlut;
    }

  private:
    AreaModel areas_;
};

} // namespace seedex

#endif // SEEDEX_HW_THROUGHPUT_MODEL_H
