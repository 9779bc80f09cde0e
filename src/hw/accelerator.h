#ifndef SEEDEX_HW_ACCELERATOR_H
#define SEEDEX_HW_ACCELERATOR_H

#include <cstdint>
#include <span>
#include <vector>

#include "hw/edit_machine.h"
#include "hw/systolic.h"
#include "hw/throughput_model.h"
#include "obs/ledger.h"
#include "seedex/filter.h"

namespace seedex {

/** Device organization (Fig. 7): clusters per memory channel, SeedEx
 *  cores per cluster, BSW cores per SeedEx core. */
struct AcceleratorOrganization
{
    int clusters = 3;
    int cores_per_cluster = 4;
    int bsw_per_core = 3;
    int edit_per_core = 1;
    double clock_hz = 125e6; ///< 8 ns extension clock
    /** AXI read latency hidden by prefetching (§V-A). */
    int axi_read_cycles = 40;

    int totalBswCores() const
    {
        return clusters * cores_per_cluster * bsw_per_core;
    }
    int totalEditCores() const
    {
        return clusters * cores_per_cluster * edit_per_core;
    }
};

/** Totals of one batch pushed through the device model. */
struct BatchResult
{
    uint64_t reruns_checks = 0;     ///< optimality checks failed
    uint64_t reruns_exception = 0;  ///< speculative early-term exception
    /** Modeled device occupancy: cycles of the busiest BSW core. */
    uint64_t device_cycles = 0;
    /** Sum of all BSW-core busy cycles (utilization numerator). */
    uint64_t busy_cycles = 0;
    /** Edit-machine busy cycles (3:1 provisioning check). */
    uint64_t edit_cycles = 0;
    FilterStats stats;

    double
    deviceSeconds(double clock_hz) const
    {
        return static_cast<double>(device_cycles) / clock_hz;
    }
};

/**
 * Behavioural model of the whole SeedEx FPGA device (Fig. 7): an input
 * parser feeding SeedEx cores through per-core queues (round-robin
 * arbiter / state manager), each core a hierarchy of narrow-band BSW
 * systolic machines plus an edit machine, with check logic deciding
 * accept/rerun. Functional results are bit-identical to
 * SeedExFilter::speculate; the model adds device timing and the
 * speculative early-termination exception path.
 */
class SeedExAccelerator
{
  public:
    SeedExAccelerator(AcceleratorOrganization org, SeedExConfig filter_cfg)
        : org_(org), filter_(filter_cfg),
          edit_machine_(filter_cfg.band)
    {}

    /**
     * Push one batch through the device; reruns execute on the host.
     * Each job's final result is appended to `results`, and its outcome
     * booked onto its record in `records` (parallel to the jobs, null
     * entries allowed, or empty); no record is attached to the thread,
     * so the model's own kernel runs book nothing.
     *
     * The functional SeedEx speculation runs once per job; the timing
     * model reuses its narrow-band result (SystolicBswCore::model) when
     * the speculation ran at the device band and charges the edit
     * machine its closed-form EditMachine::cycles, so no DP is computed
     * twice. The call touches no shared mutable state (core occupancy is
     * thread-local scratch, instruments are atomic), so any number of
     * threads may push batches concurrently; each batch's modeled cycles
     * depend only on its jobs.
     */
    BatchResult processBatch(std::span<const ExtensionJob> jobs,
                             std::vector<ExtendResult> &results,
                             std::span<obs::ReadRecord *const> records =
                                 {}) const;

    const AcceleratorOrganization &organization() const { return org_; }
    const SeedExFilter &filter() const { return filter_; }

  private:
    AcceleratorOrganization org_;
    SeedExFilter filter_;
    EditMachine edit_machine_;
};

} // namespace seedex

#endif // SEEDEX_HW_ACCELERATOR_H
