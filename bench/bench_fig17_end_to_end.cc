/**
 * @file
 * Fig. 17 reproduction: normalized end-to-end execution time breakdown of
 * {BWA-MEM, BWA-MEM2} x {software, +SeedEx, +Seeding+SeedEx}, plus the
 * software-only SeedEx data point (SS VII-B). Paper claims: software-only
 * SeedEx gives a 14 % BSW-kernel / 2.8 % application speedup; SeedEx
 * alone gives 29.6 % / 33.5 %; with the seeding accelerator the overall
 * speedups are 3.75x over BWA-MEM and 2.28x over BWA-MEM2.
 *
 * Our own mini-aligner is the BWA-MEM2 proxy: its measured stage times
 * feed the model (see DESIGN.md for the calibration of the BWA-MEM
 * multipliers and the ERT seeding factor).
 */
#include "bench_common.h"

#include "aligner/timing_model.h"
#include "hw/accelerator.h"
#include "util/stopwatch.h"

using namespace seedex;
using namespace seedex::bench;

int
main(int argc, char **argv)
{
    const bool quick = quickMode(argc, argv);
    const std::string metrics_out = metricsOutPath(argc, argv);
    const std::string trace_out = traceOutPath(argc, argv);
    banner("Figure 17: normalized end-to-end time breakdown",
           "3.75x over BWA-MEM, 2.28x over BWA-MEM2 with both "
           "accelerators");

    const size_t ref_len = quick ? 200000 : 600000;
    const size_t n_reads = quick ? 300 : 1500;
    Rng rng(20201717);
    ReferenceParams ref_params;
    ref_params.length = ref_len;
    const Sequence reference = generateReference(ref_params, rng);
    ReadSimParams sim_params = ReadSimParams::illumina();
    sim_params.base_error_rate = 0.005; // platform-realistic error floor
    ReadSimulator simulator(reference, sim_params);
    std::vector<std::pair<std::string, Sequence>> reads;
    for (size_t i = 0; i < n_reads; ++i) {
        const SimulatedRead r = simulator.simulate(rng, i);
        reads.emplace_back(r.name, r.seq);
    }

    // ---- Software baseline (the BWA-MEM2 proxy), capturing jobs.
    PipelineConfig base;
    Aligner baseline(reference, base);
    PipelineStats base_stats;
    std::vector<ExtensionJob> jobs;
    baseline.alignBatch(reads, &base_stats, &jobs);
    std::cout << strprintf(
        "software stages (s): seeding %.3f, extension %.3f, other %.3f "
        "(%zu extensions)\n",
        base_stats.times.seeding, base_stats.times.extension,
        base_stats.times.other, jobs.size());

    // ---- Software-only SeedEx (w=5 + reruns), the SS VII-B data point.
    // The provenance ledger covers exactly this run (enabled here, after
    // the baseline pass), so its verdict tallies match the report's
    // `pipeline.filter` section read-for-read at sample 1.
    const std::string ledger_out = ledgerOutPath(argc, argv);
    PipelineConfig sw_sx;
    sw_sx.engine = EngineKind::SeedEx;
    sw_sx.band = 5;
    Aligner sw_seedex(reference, sw_sx);
    PipelineStats sw_stats;
    sw_seedex.alignBatch(reads, &sw_stats);
    const double kernel_speedup =
        base_stats.times.extension / sw_stats.times.extension;
    const double app_speedup =
        base_stats.times.total() / sw_stats.times.total();
    std::cout << strprintf(
        "software-only SeedEx (w=5): BSW kernel speedup %.2fx (paper "
        "1.14x), app speedup %.2fx (paper 1.028x)\n\n",
        kernel_speedup, app_speedup);

    // ---- FPGA device model on the captured jobs.
    SeedExConfig filter_cfg;
    filter_cfg.band = 41;
    const SeedExAccelerator device(AcceleratorOrganization{}, filter_cfg);
    std::vector<ExtendResult> results;
    const BatchResult batch = device.processBatch(jobs, results);
    const double device_seconds =
        batch.deviceSeconds(AcceleratorOrganization{}.clock_hz);
    const double rerun_fraction = jobs.empty()
        ? 0.0
        : static_cast<double>(batch.reruns_checks +
                              batch.reruns_exception) /
            static_cast<double>(jobs.size());
    const double rerun_seconds =
        base_stats.times.extension * rerun_fraction;

    EndToEndInputs inputs;
    inputs.software = base_stats.times;
    inputs.seedex_device_seconds = device_seconds;
    inputs.rerun_seconds = rerun_seconds;
    inputs.seeding_accel_factor = 8.0;
    const auto bars = buildFig17(inputs);

    TextTable table;
    table.setHeader({"configuration", "seeding", "extension", "other",
                     "total"});
    for (const EndToEndBar &bar : bars) {
        table.addRow({bar.config, strprintf("%.3f", bar.seeding),
                      strprintf("%.3f", bar.extension),
                      strprintf("%.3f", bar.other),
                      strprintf("%.3f", bar.total())});
    }
    std::cout << table.render();

    const double mem_speedup = bars[0].total() / bars[2].total();
    const double mem2_speedup = bars[3].total() / bars[5].total();
    std::cout << strprintf(
        "\n[claim] SeedEx only: %.1f%% over BWA-MEM, %.1f%% over "
        "BWA-MEM2 (paper 29.6%% / 33.5%%)\n",
        100.0 * (bars[0].total() / bars[1].total() - 1.0),
        100.0 * (bars[3].total() / bars[4].total() - 1.0));
    std::cout << strprintf(
        "[claim] seeding + SeedEx: %.2fx over BWA-MEM (paper 3.75x), "
        "%.2fx over BWA-MEM2 (paper 2.28x)\n",
        mem_speedup, mem2_speedup);
    std::cout << strprintf(
        "[model] FPGA batch: %.1f ms device occupancy, %.2f%% reruns\n",
        device_seconds * 1e3, 100.0 * rerun_fraction);

    // Machine-readable run report: the SeedEx software run's per-stage
    // times and verdict mix (its filter.total sums to its extensions),
    // the device model's verdict mix, and the registry snapshot with
    // the extension-latency percentiles.
    // Every requested output is attempted; any that fails fails the run.
    bool outputs_ok = writeRunReport(metrics_out, "bench_fig17_end_to_end",
                                     &sw_stats, nullptr, &batch.stats);
    outputs_ok &= maybeWriteTrace(trace_out);
    outputs_ok &= maybeWriteLedger(ledger_out);
    return outputs_ok ? 0 : 1;
}
