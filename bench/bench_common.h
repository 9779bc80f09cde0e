#ifndef SEEDEX_BENCH_COMMON_H
#define SEEDEX_BENCH_COMMON_H

#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "align/kernel.h"
#include "align/workspace.h"
#include "aligner/pipeline.h"
#include "aligner/threaded.h"
#include "genome/read_sim.h"
#include "genome/reference.h"
#include "obs/ledger.h"
#include "obs/perfcounters.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "util/rng.h"
#include "util/table.h"

namespace seedex::bench {

/** A reproducible benchmark workload: reference, reads, and the exact
 *  extension jobs the aligner issues for them. */
struct Workload
{
    Sequence reference;
    std::vector<SimulatedRead> reads;
    /** Extension jobs captured from a full-band pipeline pass. */
    std::vector<ExtensionJob> jobs;
};

/** Build the standard workload (human-like read statistics, §VI:
 *  Illumina-like 101 bp reads including the 3' quality tail). */
inline Workload
buildWorkload(size_t ref_len, size_t n_reads, uint64_t seed = 20200613,
              ReadSimParams sim_params = ReadSimParams::illumina())
{
    Workload w;
    Rng rng(seed);
    ReferenceParams ref_params;
    ref_params.length = ref_len;
    w.reference = generateReference(ref_params, rng);

    ReadSimulator simulator(w.reference, sim_params);
    PipelineConfig config; // full-band engine
    Aligner aligner(w.reference, config);
    for (size_t i = 0; i < n_reads; ++i) {
        SimulatedRead read = simulator.simulate(rng, i);
        aligner.alignRead(read.name, read.seq, nullptr, &w.jobs);
        w.reads.push_back(std::move(read));
    }
    return w;
}

/** Scale knob: pass --quick to any bench for a fast smoke run. */
inline bool
quickMode(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--quick")
            return true;
    }
    return false;
}

/** Standard exhibit banner. */
inline void
banner(const std::string &exhibit, const std::string &claim)
{
    std::cout << "==== " << exhibit << " ====\n"
              << "paper: " << claim << "\n\n";
}

/** Value of a `--flag=VALUE` argument, or "". */
inline std::string
flagValue(int argc, char **argv, const std::string &flag)
{
    const std::string prefix = flag + "=";
    for (int i = 1; i < argc; ++i) {
        const std::string arg(argv[i]);
        if (arg.rfind(prefix, 0) == 0)
            return arg.substr(prefix.size());
    }
    return {};
}

/** Destination of the machine-readable run report (`--metrics-out=FILE`);
 *  empty means "don't write one". */
inline std::string
metricsOutPath(int argc, char **argv)
{
    return flagValue(argc, argv, "--metrics-out");
}

/**
 * Destination of the Chrome trace (`--trace-out=FILE`); empty means
 * tracing stays off. Call before the timed region: it enables the
 * global trace session as a side effect.
 */
inline std::string
traceOutPath(int argc, char **argv)
{
    const std::string path = flagValue(argc, argv, "--trace-out");
    if (!path.empty())
        obs::TraceSession::global().enable();
    return path;
}

/** Write the collected trace to `path` (no-op when empty). Call only
 *  after all worker threads have been joined. False when the write
 *  failed. */
inline bool
maybeWriteTrace(const std::string &path)
{
    if (path.empty())
        return true;
    obs::TraceSession::global().disable();
    if (!obs::TraceSession::global().writeJson(path)) {
        std::cerr << "[obs] FAILED to write trace to " << path << "\n";
        return false;
    }
    std::cout << "[obs] trace written to " << path << "\n";
    return true;
}

/**
 * Destination of the per-read provenance ledger (`--ledger-out=FILE`);
 * empty means the ledger stays off. Call before the timed region: it
 * enables the global ledger as a side effect, sampling every
 * `--ledger-sample=N`-th read (default 1 = all).
 */
inline std::string
ledgerOutPath(int argc, char **argv)
{
    const std::string path = flagValue(argc, argv, "--ledger-out");
    if (!path.empty()) {
        uint32_t sample = 1;
        const std::string s = flagValue(argc, argv, "--ledger-sample");
        if (!s.empty())
            sample = static_cast<uint32_t>(
                std::max(1L, std::strtol(s.c_str(), nullptr, 10)));
        obs::Ledger::global().clear();
        obs::Ledger::global().enable(sample);
    }
    return path;
}

/** Write the ledger JSONL to `path` (no-op when empty). Call only after
 *  all worker threads have been joined. False when the write failed. */
inline bool
maybeWriteLedger(const std::string &path)
{
    if (path.empty())
        return true;
    if (!obs::Ledger::global().writeJsonl(path)) {
        std::cerr << "[obs] FAILED to write ledger to " << path << "\n";
        return false;
    }
    std::cout << "[obs] ledger written to " << path << " ("
              << obs::Ledger::global().recordCount() << " records)\n";
    return true;
}

inline void
appendStageTimes(obs::JsonWriter &w, const StageTimes &t)
{
    w.kv("seeding", t.seeding);
    w.kv("extension", t.extension);
    w.kv("other", t.other);
    w.kv("total", t.total());
}

inline void
appendFilterStats(obs::JsonWriter &w, const FilterStats &f)
{
    w.kv("total", f.total);
    w.kv("pass_s2", f.pass_s2);
    w.kv("pass_checks", f.pass_checks);
    w.kv("fail_s1", f.fail_s1);
    w.kv("fail_e_score", f.fail_e);
    w.kv("fail_edit_check", f.fail_edit);
    w.kv("fail_gscore_guard", f.fail_gscore_guard);
    w.kv("edit_machine_runs", f.edit_machine_runs);
    w.kv("pass_rate", f.passRate());
}

inline void
appendPipelineStats(obs::JsonWriter &w, const PipelineStats &s)
{
    w.kv("reads", s.reads);
    w.kv("unmapped", s.unmapped);
    w.kv("extensions", s.extensions);
    w.key("stage_seconds").beginObject();
    appendStageTimes(w, s.times);
    w.endObject();
    w.key("filter").beginObject();
    appendFilterStats(w, s.filter);
    w.endObject();
}

inline void
appendThreadedReport(obs::JsonWriter &w, const ThreadedReport &r)
{
    w.kv("wall_seconds", r.wall_seconds);
    w.kv("reads", r.reads);
    w.kv("batches", r.batches);
    w.kv("extensions", r.extensions);
    w.kv("reruns", r.reruns);
    w.kv("device_cycles", r.device_cycles);
}

/** The hand-off telemetry of the batch ring / slab pool / reorder
 *  buffer (run-report `threading` section, checked by
 *  tools/check_metrics.sh). */
inline void
appendThreadingDetail(obs::JsonWriter &w, const ThreadedReport &r)
{
    w.kv("seeding_threads", static_cast<int64_t>(r.seeding_threads));
    w.kv("fpga_threads", static_cast<int64_t>(r.fpga_threads));
    w.kv("batch_size", r.batch_size);
    w.kv("batches", r.batches);
    w.kv("helped_batches", r.helped_batches);
    w.kv("producer_cpu_seconds", r.producer_cpu_seconds);
    w.kv("consumer_cpu_seconds", r.consumer_cpu_seconds);
    w.kv("device_emulation_cpu_seconds", r.device_emulation_cpu_seconds);
    w.kv("device_occupancy_seconds", r.device_occupancy_seconds);
    w.key("queue").beginObject();
    w.kv("publishes", r.queue.publishes);
    w.kv("claims", r.queue.claims);
    w.kv("wakeups", r.queue.wakeups);
    w.kv("capacity_batches", r.queue.capacity_batches);
    w.kv("max_depth", r.queue.max_depth);
    w.kv("avg_depth", r.queue.avg_depth);
    w.endObject();
    w.key("pool").beginObject();
    w.kv("hits", r.pool.hits);
    w.kv("misses", r.pool.misses);
    w.kv("hit_rate", r.pool.hitRate());
    w.endObject();
    w.key("reorder").beginObject();
    w.kv("retired", r.reorder.retired);
    w.kv("max_pending", r.reorder.max_pending);
    w.endObject();
}

inline void
appendLedgerSummary(obs::JsonWriter &w, const obs::LedgerSummary &s)
{
    w.kv("records", s.records);
    w.kv("sample_every", static_cast<uint64_t>(s.sample_every));
    w.kv("mapped", s.mapped);
    w.kv("extensions", s.extensions);
    w.kv("kernel_calls", s.kernel_calls);
    w.key("verdicts").beginObject();
    for (int v = 0; v < obs::kLedgerVerdicts; ++v)
        w.kv(obs::ledgerVerdictName(
                 static_cast<obs::LedgerVerdict>(v)),
             s.verdicts[static_cast<size_t>(v)]);
    w.endObject();
    w.kv("verdict_total", s.verdictTotal());
    w.kv("edit_machine_runs", s.edit_machine_runs);
    w.kv("reruns", s.reruns);
    w.kv("fallback_rate", s.fallbackRate());
    w.kv("zdrops", s.zdrops);
    w.kv("band_clips", s.band_clips);
    w.kv("global_fills", s.global_fills);
    w.kv("global_reruns", s.global_reruns);
    w.key("band_used").beginArray();
    for (const obs::LedgerBandBucket &b : s.band_used) {
        w.beginObject();
        if (b.le < 0)
            w.kv("le", std::string("inf"));
        else
            w.kv("le", static_cast<int64_t>(b.le));
        w.kv("count", b.count);
        w.endObject();
    }
    w.endArray();
}

inline void
appendPerfProfile(obs::JsonWriter &w)
{
    w.kv("available", obs::PerfRegistry::global().anyAvailable());
    w.key("stages").beginObject();
    for (const obs::StageProfileSummary &s :
         obs::PerfRegistry::global().snapshot()) {
        w.key(s.name).beginObject();
        w.kv("scopes", s.scopes);
        w.kv("cycles", s.cycles);
        w.kv("instructions", s.instructions);
        w.kv("branch_misses", s.branch_misses);
        w.kv("llc_misses", s.llc_misses);
        w.kv("ipc", s.ipc());
        w.kv("branch_misses_per_kinstr", s.branchMissesPerKiloInstr());
        w.kv("llc_misses_per_kinstr", s.llcMissesPerKiloInstr());
        w.endObject();
    }
    w.endObject();
}

/**
 * The bench layer of the run-report exporter: folds whichever of the
 * ad-hoc stat structs the bench produced (pass nullptr for the rest)
 * plus the full metrics-registry snapshot into one JSON document at
 * `path`. No-op when `path` is empty, so benches can call this
 * unconditionally with metricsOutPath()'s result. False when the write
 * failed.
 */
inline bool
writeRunReport(const std::string &path, const std::string &bench,
               const PipelineStats *pipeline = nullptr,
               const ThreadedReport *threaded = nullptr,
               const FilterStats *filter = nullptr)
{
    if (path.empty())
        return true;
    obs::RunReport report(bench);
    if (pipeline != nullptr)
        report.section("pipeline", [&](obs::JsonWriter &w) {
            appendPipelineStats(w, *pipeline);
        });
    if (threaded != nullptr) {
        report.section("threaded", [&](obs::JsonWriter &w) {
            appendThreadedReport(w, *threaded);
        });
        report.section("threading", [&](obs::JsonWriter &w) {
            appendThreadingDetail(w, *threaded);
        });
    }
    if (filter != nullptr)
        report.section("filter", [&](obs::JsonWriter &w) {
            appendFilterStats(w, *filter);
        });
    // Provenance-ledger rollup (only when a ledger was enabled for the
    // run) and the hardware-counter profile. Both are cheap snapshots;
    // call only after worker threads have been joined.
    if (obs::Ledger::global().enabled()) {
        const obs::LedgerSummary ledger = obs::Ledger::global().summary();
        report.section("ledger", [&](obs::JsonWriter &w) {
            appendLedgerSummary(w, ledger);
        });
    }
    report.section("profile", [&](obs::JsonWriter &w) {
        appendPerfProfile(w);
    });
    // Which vector tier the extension kernel resolved to for this process,
    // plus the workspace high-water marks -- every run report carries
    // these so perf numbers are attributable to an ISA.
    report.section("kernel", [&](obs::JsonWriter &w) {
        w.kv("dispatch", std::string(kernelIsaName(kernelDispatch())));
        w.key("available").beginArray();
        for (KernelIsa isa : availableKernelIsas())
            w.value(std::string(kernelIsaName(isa)));
        w.endArray();
        w.kv("workspace_bytes",
             static_cast<uint64_t>(DpWorkspace::tls().bytesReserved()));
        w.kv("workspace_grow_events",
             static_cast<uint64_t>(DpWorkspace::tls().growEvents()));
    });
    report.addMetrics(obs::MetricsRegistry::global().snapshot());
    if (!report.write(path)) {
        std::cerr << "[obs] FAILED to write run report to " << path
                  << "\n";
        return false;
    }
    std::cout << "[obs] run report written to " << path << "\n";
    return true;
}

/** Schema identifier stamped into every bench sweep document (the
 *  `--json=FILE` grids bench_compare.py diffs against baselines). */
inline constexpr const char *kBenchSweepSchema = "seedex.bench_sweep/v1";

/** Stamp the standard sweep-document header: schema + bench name. Call
 *  right after beginObject() on the root. */
inline void
beginSweepDoc(obs::JsonWriter &w, const std::string &bench)
{
    w.kv("schema", std::string(kBenchSweepSchema));
    w.kv("bench", bench);
}

} // namespace seedex::bench

#endif // SEEDEX_BENCH_COMMON_H
