/**
 * @file
 * System-integration experiments (§V, Fig. 12 — no single paper figure):
 *   (a) producer-consumer threading: seeding threads vs FPGA threads
 *       (the paper's load-balancing knob; it ends up giving >= 88 % of
 *       threads to seeding because SeedEx makes extension invisible),
 *   (b) the §V-A batch format: 3-bit packing, 5:1 output coalescing, and
 *       the prefetch-overlap check (memory cycles vs compute cycles).
 */
#include "bench_common.h"

#include "aligner/threaded.h"
#include "hw/batch_format.h"

using namespace seedex;
using namespace seedex::bench;

int
main(int argc, char **argv)
{
    const bool quick = quickMode(argc, argv);
    const std::string metrics_out = metricsOutPath(argc, argv);
    const std::string trace_out = traceOutPath(argc, argv);
    const std::string ledger_out = ledgerOutPath(argc, argv);
    banner("System integration (SS V, Fig. 12)",
           "producer-consumer pipeline; prefetching hides memory");

    Rng rng(20261212);
    ReferenceParams rp;
    rp.length = quick ? 200000 : 500000;
    const Sequence ref = generateReference(rp, rng);
    ReadSimulator sim(ref, ReadSimParams::illumina());
    std::vector<std::pair<std::string, Sequence>> reads;
    const size_t n_reads = quick ? 300 : 1200;
    for (size_t i = 0; i < n_reads; ++i) {
        const SimulatedRead r = sim.simulate(rng, i);
        reads.emplace_back(r.name, r.seq);
    }

    // ---- (a) thread-allocation sweep.
    std::cout << "(a) thread allocation (seeding:FPGA threads):\n";
    TextTable threads;
    threads.setHeader({"config", "wall ms", "reads/s", "batches",
                       "reruns"});
    ThreadedReport last_report;
    for (const auto &[s, f] : {std::pair<int, int>{1, 1}, {2, 1},
                               {3, 1}, {3, 2}}) {
        ThreadedConfig cfg;
        cfg.pipeline.engine = EngineKind::Device;
        cfg.seeding_threads = s;
        cfg.fpga_threads = f;
        cfg.batch_size = 32;
        ThreadedReport report;
        // Each sweep point replays the same reads; keep only the last
        // configuration's records so the exported JSONL covers exactly
        // one threaded pass over the read set.
        if (obs::Ledger::global().enabled())
            obs::Ledger::global().clear();
        alignThreaded(ref, reads, cfg, &report);
        last_report = report;
        threads.addRow(
            {strprintf("%d:%d", s, f),
             strprintf("%.1f", report.wall_seconds * 1e3),
             strprintf("%.0f", static_cast<double>(report.reads) /
                                   report.wall_seconds),
             strprintf("%llu",
                       static_cast<unsigned long long>(report.batches)),
             strprintf("%llu",
                       static_cast<unsigned long long>(report.reruns))});
    }
    std::cout << threads.render();
    std::cout << "[claim] adding seeding threads helps; FPGA threads "
                 "only need to keep batches in flight (SS VII-B: >= 88% "
                 "of threads go to seeding)\n\n";

    // ---- (b) batch format + bandwidth accounting. Suspend the ledger:
    // these reads replay part (a)'s and would collide with its records.
    const uint32_t ledger_sample = obs::Ledger::global().sampleEvery();
    const bool ledger_was_on = obs::Ledger::global().enabled();
    if (ledger_was_on)
        obs::Ledger::global().disable();
    PipelineConfig pc;
    Aligner aligner(ref, pc);
    std::vector<ExtensionJob> jobs;
    for (size_t i = 0; i < std::min<size_t>(n_reads, 400); ++i)
        aligner.alignRead(reads[i].first, reads[i].second, nullptr,
                          &jobs);
    const PackedBatch packed = packBatch(jobs);
    const size_t naive_bytes = [&] {
        size_t b = 0;
        for (const ExtensionJob &j : jobs)
            b += j.query.size() + j.target.size() + 12;
        return b;
    }();
    const BandwidthReport bw = accountBandwidth(packed, jobs, 41, 3);
    std::cout << "(b) batch format (" << jobs.size() << " jobs):\n";
    std::cout << strprintf(
        "  input: %zu B packed (3-bit chars, 512-bit lines) vs %zu B "
        "byte-per-char\n",
        packed.bytes(), naive_bytes);
    std::cout << strprintf(
        "  output: %zu B (5 results per 64 B line)\n", bw.output_bytes);
    std::cout << strprintf(
        "  memory stream %llu cycles vs cluster compute %llu cycles -> "
        "memory %s (SS V-A: \"memory access time is completely "
        "hidden\")\n",
        static_cast<unsigned long long>(bw.memory_cycles),
        static_cast<unsigned long long>(bw.compute_cycles),
        bw.memoryHidden() ? "hidden" : "EXPOSED");

    if (ledger_was_on)
        obs::Ledger::global().enable(ledger_sample);
    // Every requested output is attempted; any that fails fails the run.
    bool outputs_ok = writeRunReport(metrics_out, "bench_sys_integration",
                                     nullptr, &last_report);
    outputs_ok &= maybeWriteTrace(trace_out);
    outputs_ok &= maybeWriteLedger(ledger_out);
    return outputs_ok ? 0 : 1;
}
