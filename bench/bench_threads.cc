/**
 * @file
 * Thread-scaling benchmark for the Fig. 12 (§V-B) producer-consumer
 * pipeline: a reads × threads × batch-size sweep over the batch ring /
 * slab pool / reorder-buffer hand-off, reporting modeled parallel
 * speedup, hand-off operations per read, and pool recycling rates.
 *
 * The headline claim (ISSUE 7): at 8 threads the pipeline's modeled
 * speedup over its own single-threaded execution is >= 2.5x. "Modeled"
 * because CI hosts (and this one) may expose a single core: each cell
 * measures per-thread CPU time (CLOCK_THREAD_CPUTIME_ID) and models the
 * wall clock of the stage-parallel schedule as
 *
 *   modeled_wall = max(producer_cpu / seeding_threads,
 *                      host_consumer_cpu / fpga_threads,
 *                      device_occupancy_seconds)
 *
 * versus the serial schedule max(total_host_cpu, device_occupancy).
 * CPU time is what the threads would burn on real cores, so the ratio
 * is machine-portable (a ratio-class metric for bench_compare.py); the
 * raw wall-clock columns remain time-class and are skipped by the CI
 * gate's --ratios-only mode.
 *
 * Every multi-threaded cell is also verified bit-identical to the
 * single-threaded aligner on the same reads (the §VI equivalence bar).
 *
 * Emits BENCH_threads.json (override with --out=FILE, schema
 * seedex.bench_sweep/v1); --quick shrinks the sweep;
 * --metrics-out=FILE exports the run report with the `threading`
 * section populated from the 8-thread cell.
 */
#include <cstdint>

#include "bench_common.h"
#include "util/stopwatch.h"

using namespace seedex;
using namespace seedex::bench;

namespace {

/** The SEEDEX_THREADS policy: 3:1 seeding:fpga split, one each side
 *  minimum (keep in sync with ThreadedConfig::applyEnv). */
void
splitThreads(int total, int *seeding, int *fpga)
{
    *seeding = std::max(1, (total * 3) / 4);
    *fpga = std::max(1, total - *seeding);
}

struct CellResult
{
    ThreadedReport report;
    double wall_seconds = 0;
    double modeled_wall = 0;      ///< stage-parallel schedule
    double modeled_wall_1t = 0;   ///< serial schedule, same measured CPU
    double modeled_speedup = 0;
    double modeled_efficiency = 0;
    double handoff_ops_per_read = 0;
    bool identical = false;       ///< vs single-threaded aligner
};

CellResult
runCell(const Sequence &reference, const FmdIndex &index,
        const std::vector<std::pair<std::string, Sequence>> &reads,
        const std::vector<SamRecord> &expected, int threads, size_t batch)
{
    ThreadedConfig config;
    splitThreads(threads, &config.seeding_threads, &config.fpga_threads);
    config.batch_size = batch;

    CellResult res;
    Stopwatch wall;
    wall.start();
    const std::vector<SamRecord> got =
        alignThreaded(reference, reads, config, &res.report, &index);
    wall.stop();
    res.wall_seconds = wall.seconds();

    res.identical = got.size() == expected.size();
    for (size_t i = 0; res.identical && i < got.size(); ++i)
        res.identical = got[i].sameAlignment(expected[i]);

    // Host CPU split: the consumer's device-emulation time models cycles
    // the FPGA (not a host core) would spend, so it is subtracted from
    // the consumer stage and accounted as device occupancy instead.
    const ThreadedReport &r = res.report;
    const double producer_cpu = r.producer_cpu_seconds;
    const double consumer_cpu = std::max(
        0.0, r.consumer_cpu_seconds - r.device_emulation_cpu_seconds);
    const double occupancy = r.device_occupancy_seconds;
    res.modeled_wall_1t =
        std::max(producer_cpu + consumer_cpu, occupancy);
    res.modeled_wall = std::max(
        {producer_cpu / std::max(1, r.seeding_threads),
         consumer_cpu / std::max(1, r.fpga_threads), occupancy});
    res.modeled_speedup = res.modeled_wall > 0
        ? res.modeled_wall_1t / res.modeled_wall
        : 0;
    res.modeled_efficiency =
        threads > 0 ? res.modeled_speedup / threads : 0;
    res.handoff_ops_per_read = reads.empty()
        ? 0
        : static_cast<double>(r.queue.publishes + r.queue.claims +
                              r.queue.wakeups) /
            static_cast<double>(reads.size());
    return res;
}

void
appendCell(obs::JsonWriter &json, int threads, size_t batch,
           size_t n_reads, const CellResult &res)
{
    const ThreadedReport &r = res.report;
    json.beginObject();
    json.kv("threads", static_cast<int64_t>(threads));
    json.kv("batch", static_cast<uint64_t>(batch));
    json.kv("seeding_threads", static_cast<int64_t>(r.seeding_threads));
    json.kv("fpga_threads", static_cast<int64_t>(r.fpga_threads));
    json.kv("reads", static_cast<uint64_t>(n_reads));
    json.kv("identical_to_single_thread", res.identical);
    // Ratio class (machine-portable; the CI gate compares these).
    json.kv("modeled_speedup", res.modeled_speedup);
    json.kv("modeled_efficiency", res.modeled_efficiency);
    json.kv("handoff_ops_per_read", res.handoff_ops_per_read);
    json.kv("pool_hit_rate", r.pool.hitRate());
    // Time class (host-dependent; skipped by --ratios-only).
    json.kv("wall_seconds", res.wall_seconds);
    json.kv("reads_per_s", res.wall_seconds > 0
                ? static_cast<double>(n_reads) / res.wall_seconds
                : 0);
    json.kv("modeled_wall_seconds", res.modeled_wall);
    json.kv("producer_cpu_seconds", r.producer_cpu_seconds);
    json.kv("consumer_cpu_seconds", r.consumer_cpu_seconds);
    json.kv("device_occupancy_seconds", r.device_occupancy_seconds);
    // Hand-off telemetry (context for the ratio columns).
    json.kv("queue_publishes", r.queue.publishes);
    json.kv("queue_claims", r.queue.claims);
    json.kv("queue_wakeups", r.queue.wakeups);
    json.kv("queue_shards", static_cast<uint64_t>(r.queue.shards));
    json.kv("queue_max_depth", r.queue.max_depth);
    json.kv("reorder_max_pending", r.reorder.max_pending);
    json.endObject();
}

} // namespace

int
main(int argc, char **argv)
{
    banner("Thread scaling: batch ring + slab pool + reorder buffer",
           "the Fig. 12 software pipeline scales to 8 threads at >= "
           "2.5x modeled speedup with batch-granular hand-off");

    const bool quick = quickMode(argc, argv);
    std::string out_path = flagValue(argc, argv, "--out", nullptr);
    if (out_path.empty())
        out_path = "BENCH_threads.json";
    const std::string metrics_path = metricsOutPath(argc, argv);
    const std::string trace_out = traceOutPath(argc, argv);

    const size_t ref_len = quick ? 200000 : 600000;
    const size_t n_reads = quick ? 1200 : 6000;
    Rng rng(20200712);
    ReferenceParams ref_params;
    ref_params.length = ref_len;
    const Sequence reference = generateReference(ref_params, rng);
    ReadSimulator simulator(reference, ReadSimParams::illumina());
    std::vector<std::pair<std::string, Sequence>> reads;
    reads.reserve(n_reads);
    for (size_t i = 0; i < n_reads; ++i) {
        const SimulatedRead r = simulator.simulate(rng, i);
        reads.emplace_back(r.name, r.seq);
    }

    // Bit-identity oracle: the single-threaded pipeline on the same
    // reads (every cell must reproduce it exactly).
    PipelineConfig base;
    Aligner baseline(reference, base);
    const std::vector<SamRecord> expected = baseline.alignBatch(reads);
    // One index for every cell, built outside the timed region.
    const FmdIndex index(reference);

    const std::vector<int> thread_counts{1, 2, 4, 8};
    const std::vector<size_t> batches{16, 64};

    TextTable table;
    table.setHeader({"threads", "split", "batch", "reads/s", "speedup*",
                     "eff*", "handoff/read", "pool hit", "wakeups",
                     "identical"});
    obs::JsonWriter json;
    json.beginObject();
    beginSweepDoc(json, "bench_threads");
    json.key("cells").beginArray();

    double headline_speedup = 0, headline_efficiency = 0;
    ThreadedReport report_8t;
    bool all_identical = true;

    for (size_t batch : batches) {
        for (int threads : thread_counts) {
            const CellResult res =
                runCell(reference, index, reads, expected, threads, batch);
            all_identical &= res.identical;
            if (threads == 8) {
                if (res.modeled_speedup > headline_speedup) {
                    headline_speedup = res.modeled_speedup;
                    headline_efficiency = res.modeled_efficiency;
                }
                report_8t = res.report;
            }
            appendCell(json, threads, batch, n_reads, res);
            table.addRow(
                {std::to_string(threads),
                 strprintf("%d+%d", res.report.seeding_threads,
                           res.report.fpga_threads),
                 std::to_string(batch),
                 strprintf("%.0f", res.wall_seconds > 0
                               ? n_reads / res.wall_seconds
                               : 0),
                 strprintf("%.2f", res.modeled_speedup),
                 strprintf("%.2f", res.modeled_efficiency),
                 strprintf("%.3f", res.handoff_ops_per_read),
                 strprintf("%.2f", res.report.pool.hitRate()),
                 std::to_string(res.report.queue.wakeups),
                 res.identical ? "yes" : "NO"});
        }
    }
    json.endArray();
    json.kv("modeled_speedup_8t", headline_speedup);
    json.kv("modeled_efficiency_8t", headline_efficiency);
    json.kv("all_identical", all_identical);
    json.endObject();

    std::cout << table.render();
    std::cout << strprintf(
        "\n* modeled from per-thread CPU time (stage-parallel schedule "
        "vs serial)\nheadline: %.2fx modeled speedup at 8 threads "
        "(claim >= 2.5x), efficiency %.2f\n",
        headline_speedup, headline_efficiency);

    if (!all_identical) {
        std::cerr << "[bench] FAIL: a multi-threaded cell diverged from "
                     "the single-threaded aligner\n";
        return 1;
    }

    if (!obs::writeTextFile(out_path, json.str()))
        std::cerr << "[bench] FAILED to write " << out_path << "\n";
    else
        std::cout << "[bench] sweep written to " << out_path << "\n";

    writeRunReport(metrics_path, "bench_threads", nullptr, &report_8t);
    maybeWriteTrace(trace_out);
    return 0;
}
