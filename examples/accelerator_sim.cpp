/**
 * @file
 * Accelerator simulation: push a realistic extension workload through the
 * SeedEx device model (Fig. 7 organization) and report throughput, core
 * utilization, verdict mix, rerun causes, and the FPGA area budget.
 *
 * Usage: accelerator_sim [reads] [band] [seed]
 */
#include <cstdlib>
#include <iostream>

#include "aligner/pipeline.h"
#include "genome/read_sim.h"
#include "genome/reference.h"
#include "hw/accelerator.h"
#include "hw/area_model.h"
#include "util/rng.h"
#include "util/table.h"

using namespace seedex;

int
main(int argc, char **argv)
{
    const size_t n_reads = argc > 1 ? std::strtoull(argv[1], nullptr, 10)
                                    : 300;
    const int band = argc > 2 ? std::atoi(argv[2]) : 41;
    const uint64_t seed = argc > 3 ? std::strtoull(argv[3], nullptr, 10)
                                   : 11;

    Rng rng(seed);
    ReferenceParams ref_params;
    ref_params.length = 400000;
    const Sequence reference = generateReference(ref_params, rng);
    ReadSimulator simulator(reference, ReadSimParams{});

    // Collect the extension jobs an aligner would ship to the FPGA.
    PipelineConfig config;
    Aligner aligner(reference, config);
    std::vector<ExtensionJob> jobs;
    for (size_t i = 0; i < n_reads; ++i) {
        const SimulatedRead r = simulator.simulate(rng, i);
        aligner.alignRead(r.name, r.seq, nullptr, &jobs);
    }
    std::cout << "captured " << jobs.size() << " extension jobs from "
              << n_reads << " reads\n";

    AcceleratorOrganization org;
    SeedExConfig filter_cfg;
    filter_cfg.band = band;
    const SeedExAccelerator device(org, filter_cfg);
    std::vector<ExtendResult> results;
    const BatchResult batch = device.processBatch(jobs, results);

    const double seconds = batch.deviceSeconds(org.clock_hz);
    const double util = static_cast<double>(batch.busy_cycles) /
                        (static_cast<double>(org.totalBswCores()) *
                         static_cast<double>(batch.device_cycles));
    std::cout << strprintf(
        "\ndevice: %d clusters x %d cores x %d BSW (w=%d) @ %.0f MHz\n",
        org.clusters, org.cores_per_cluster, org.bsw_per_core, band,
        org.clock_hz / 1e6);
    std::cout << strprintf(
        "batch time %.1f us, throughput %.1f M ext/s, utilization %.1f%%\n",
        seconds * 1e6, static_cast<double>(jobs.size()) / seconds / 1e6,
        100.0 * util);

    const FilterStats &f = batch.stats;
    TextTable verdicts;
    verdicts.setHeader({"verdict", "count", "share"});
    auto row = [&](const char *name, uint64_t n) {
        verdicts.addRow({name, strprintf("%llu",
                                         static_cast<unsigned long long>(n)),
                         strprintf("%.2f%%", 100.0 * static_cast<double>(n) /
                                                 static_cast<double>(f.total))});
    };
    row("pass: score > S2", f.pass_s2);
    row("pass: E-score + edit checks", f.pass_checks);
    row("rerun: score <= S1", f.fail_s1);
    row("rerun: E-score check", f.fail_e);
    row("rerun: edit-distance check", f.fail_edit);
    row("rerun: strict gscore guard", f.fail_gscore_guard);
    std::cout << '\n' << verdicts.render();
    std::cout << strprintf(
        "speculative early-termination exceptions: %llu\n",
        static_cast<unsigned long long>(batch.reruns_exception));

    const FpgaFloorplan plan;
    std::cout << "\nFPGA LUT budget (SeedEx-only image, "
              << plan.device().name << "):\n";
    for (const auto &[label, pct] : plan.seedexOnlyLutBreakdown(band))
        std::cout << strprintf("  %-24s %6.2f%%\n", label.c_str(), pct);
    return 0;
}
