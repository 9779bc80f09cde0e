#include "hw/accelerator.h"

#include <algorithm>

#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace seedex {

namespace {

/** Device-model instruments: per-batch occupancy and the rerun tail
 *  (§V-B). Cycle counters are monotonic sums; the histogram tracks the
 *  modeled wall time of each batch at the configured device clock. */
struct DeviceMetrics
{
    obs::Counter &batches =
        obs::MetricsRegistry::global().counter("device.batches");
    obs::Counter &jobs =
        obs::MetricsRegistry::global().counter("device.jobs");
    obs::Counter &rerun_checks =
        obs::MetricsRegistry::global().counter("device.rerun.checks");
    obs::Counter &rerun_exception =
        obs::MetricsRegistry::global().counter("device.rerun.exception");
    obs::Counter &device_cycles =
        obs::MetricsRegistry::global().counter("device.cycles.critical");
    obs::Counter &busy_cycles =
        obs::MetricsRegistry::global().counter("device.cycles.busy");
    obs::Counter &edit_cycles =
        obs::MetricsRegistry::global().counter("device.cycles.edit");
    obs::LatencyHistogram &batch_seconds =
        obs::MetricsRegistry::global().histogram("device.batch.seconds");
    obs::LatencyHistogram &occupancy =
        obs::MetricsRegistry::global().histogram("device.batch.occupancy");
};

DeviceMetrics &
deviceMetrics()
{
    static DeviceMetrics metrics;
    return metrics;
}

} // namespace

BatchResult
SeedExAccelerator::processBatch(std::span<const ExtensionJob> jobs,
                                std::vector<ExtendResult> &results,
                                std::span<obs::ReadRecord *const> records)
    const
{
    obs::TraceSpan span("device.batch", "device");
    BatchResult batch;
    const int n_bsw = org_.totalBswCores();
    thread_local std::vector<uint64_t> core_busy;
    core_busy.assign(static_cast<size_t>(n_bsw), 0);
    const SeedExConfig &cfg = filter_.config();
    SystolicBswCore bsw(cfg.band, cfg.scoring);

    for (size_t idx = 0; idx < jobs.size(); ++idx) {
        const ExtensionJob &job = jobs[idx];
        // Functional path: the filter's speculation at its band capped
        // at BWA's per-flank estimate, with the full-band host rerun on
        // rejection. The device timing model below is unchanged (the
        // hardware band is fixed; unused PEs are simply disabled).
        const Speculation sp =
            filter_.speculate(job.query, job.target, job.h0, &batch.stats);

        // Timing + exception path: the systolic model of the same core.
        // When the speculation ran at the device band (always, once the
        // flank's estimate reaches it) its narrow result IS the core's
        // kernel output, so only the model runs; short flanks speculated
        // narrower need the kernel at the device band first.
        BswCoreStats stats;
        if (sp.band == bsw.band() && cfg.zdrop <= 0)
            bsw.model(job.query, job.target, job.h0, sp.outcome.narrow,
                      &stats);
        else
            bsw.run(job.query, job.target, job.h0, &stats);
        // Arbiter: jobs stream to the least-loaded core (the state
        // manager keeps every BSW core fed from the input RAM).
        auto target_core = std::min_element(core_busy.begin(),
                                            core_busy.end());
        *target_core += stats.cycles;
        batch.busy_cycles += stats.cycles;

        if (sp.outcome.ran_edit_machine)
            batch.edit_cycles += edit_machine_.cycles(
                static_cast<int>(job.target.size()));

        bool rerun = !sp.accepted();
        if (stats.early_term_exception) {
            rerun = true;
            ++batch.reruns_exception;
        } else if (!sp.accepted()) {
            ++batch.reruns_checks;
        }
        if (rerun && sp.accepted()) {
            // Speculative early-termination exception on an accepted
            // extension: the device result cannot be trusted, so the
            // host recomputes at the conservatively estimated full band.
            ExtendConfig full;
            full.scoring = cfg.scoring;
            full.band = estimateFullBand(
                static_cast<int>(job.query.size()), cfg.scoring,
                cfg.end_bonus);
            full.zdrop = cfg.zdrop;
            results.push_back(kswExtend(job.query, job.target, job.h0, full));
        } else {
            // Accepted result, or the speculation's own full-band rerun
            // (already guaranteed-optimal).
            results.push_back(sp.result);
        }

        if (obs::ReadRecord *rec = records.empty() ? nullptr : records[idx]) {
            ++rec->extensions;
            ++rec->kernel_calls; // the narrow speculation
            rec->addVerdict(ledgerVerdict(sp.outcome.verdict),
                            sp.outcome.ran_edit_machine);
            if (rerun) {
                ++rec->reruns;
                ++rec->kernel_calls; // host full-band rerun
            }
            rec->band_used = std::max(rec->band_used, results.back().max_off);
        }
    }
    batch.device_cycles = core_busy.empty()
        ? 0
        : *std::max_element(core_busy.begin(), core_busy.end());

    DeviceMetrics &m = deviceMetrics();
    m.batches.inc();
    m.jobs.inc(jobs.size());
    m.rerun_checks.inc(batch.reruns_checks);
    m.rerun_exception.inc(batch.reruns_exception);
    m.device_cycles.inc(batch.device_cycles);
    m.busy_cycles.inc(batch.busy_cycles);
    m.edit_cycles.inc(batch.edit_cycles);
    m.batch_seconds.observe(batch.deviceSeconds(org_.clock_hz));
    if (batch.device_cycles > 0) {
        // Fraction of BSW-core cycle slots doing work while the batch
        // occupies the device (Table II's utilization numerator).
        m.occupancy.observe(
            static_cast<double>(batch.busy_cycles) /
            (static_cast<double>(batch.device_cycles) * n_bsw));
    }
    SEEDEX_LOG(Debug, "device",
               "batch: %zu jobs, %llu reruns (%llu checks, %llu "
               "exception), %llu critical cycles",
               jobs.size(),
               static_cast<unsigned long long>(batch.reruns_checks +
                                               batch.reruns_exception),
               static_cast<unsigned long long>(batch.reruns_checks),
               static_cast<unsigned long long>(batch.reruns_exception),
               static_cast<unsigned long long>(batch.device_cycles));
    return batch;
}

} // namespace seedex
