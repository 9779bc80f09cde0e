/**
 * @file
 * Seeding-stage benchmark: the scalar SMEM driver (one read at a time)
 * vs the lockstep batch driver (FmdIndex::extendBatch rounds over 4, 16
 * or 64 reads) on one packed FM-index — a genome-size × batch-size sweep
 * reporting reads/s, Mbases/s, occ queries and text-comparison steps
 * per read.
 *
 * Both drivers run the same forward-backward SMEM search at the default
 * length floor (19) and issue exactly the same occ queries, so
 * occ_calls_per_read measures the search's index work on any machine;
 * the CI bench gate compares it against the committed baseline.
 *
 * The headline: the best batch-16 cell against the scalar driver at
 * 101 bp reads, i.e. how much memory-level parallelism the lockstep
 * driver extracts. The --quick sweep's 1 Mbp index fits in cache, so
 * its headline leaves out the misses that batching hides.
 *
 * Emits a machine-readable BENCH_seed.json (override with --out=FILE);
 * --quick shrinks the sweep; --metrics-out=FILE exports the run report
 * with the seed.* instruments populated.
 */
#include <chrono>
#include <cstdint>
#include <memory>

#include "aligner/seeding.h"
#include "bench_common.h"

using namespace seedex;
using namespace seedex::bench;

namespace {

/** One SMEM driver configuration under test. */
struct Config
{
    std::string name;
    size_t batch = 1; ///< 1 = scalar path
};

struct CellResult
{
    double seconds = 0;
    double reads_per_s = 0;
    double mbases_per_s = 0;
    double occ_per_read = 0;
    double text_per_read = 0;
    uint64_t seeds = 0; ///< checksum: total seeds produced
};

CellResult
timeSeeding(const FmdIndex &index, const Config &cfg,
            const std::vector<Sequence> &reads, int reps)
{
    const SeedingParams params;
    SeedWorkspace ws;
    std::vector<const Sequence *> queries;
    for (const Sequence &read : reads)
        queries.push_back(&read);
    std::vector<std::vector<Seed>> out(reads.size());
    std::vector<Seed> scalar_out;

    auto run = [&](CellResult *res) {
        if (cfg.batch <= 1) {
            for (size_t r = 0; r < reads.size(); ++r) {
                collectSeedsInto(index, reads[r], params, ws, scalar_out);
                if (res)
                    res->seeds += scalar_out.size();
            }
        } else {
            for (size_t base = 0; base < reads.size();
                 base += cfg.batch) {
                const size_t n =
                    std::min(cfg.batch, reads.size() - base);
                collectSeedsBatch(index, queries.data() + base, n, params,
                                  ws, out);
                if (res)
                    for (size_t r = 0; r < n; ++r)
                        res->seeds += out[r].size();
            }
        }
    };

    run(nullptr); // warm the workspaces and the cache

    CellResult res;
    uint64_t bases = 0;
    for (const Sequence &read : reads)
        bases += read.size();

    // Take the fastest repetition: the host is shared, so a cell can
    // lose a large slice of its wall clock to a neighbour, and min() is
    // the standard noise-robust estimator of the undisturbed runtime.
    const FmdThreadCounters before = FmdIndex::threadCounters();
    double best = 0;
    for (int rep = 0; rep < reps; ++rep) {
        const auto t0 = std::chrono::steady_clock::now();
        res.seeds = 0;
        run(&res);
        const auto t1 = std::chrono::steady_clock::now();
        const double s = std::chrono::duration<double>(t1 - t0).count();
        if (rep == 0 || s < best)
            best = s;
    }
    const FmdThreadCounters after = FmdIndex::threadCounters();

    const double total_reads = static_cast<double>(reads.size());
    res.seconds = best;
    res.reads_per_s = total_reads / best;
    res.mbases_per_s = static_cast<double>(bases) / best / 1e6;
    res.occ_per_read =
        static_cast<double>(after.occ_calls - before.occ_calls) /
        (total_reads * reps);
    res.text_per_read =
        static_cast<double>(after.text_steps - before.text_steps) /
        (total_reads * reps);
    return res;
}

void
appendCell(obs::JsonWriter &json, size_t genome, size_t n_reads,
           const Config &cfg, const CellResult &res, double speedup)
{
    json.beginObject();
    json.kv("genome_bp", static_cast<uint64_t>(genome));
    json.kv("reads", static_cast<uint64_t>(n_reads));
    json.kv("config", cfg.name);
    json.kv("batch", static_cast<uint64_t>(cfg.batch));
    json.kv("seconds", res.seconds);
    json.kv("reads_per_s", res.reads_per_s);
    json.kv("mbases_per_s", res.mbases_per_s);
    json.kv("occ_calls_per_read", res.occ_per_read);
    json.kv("text_steps_per_read", res.text_per_read);
    json.kv("seeds", res.seeds);
    json.kv("speedup_vs_scalar", speedup);
    json.endObject();
}

} // namespace

int
main(int argc, char **argv)
{
    banner("Seeding: scalar vs lockstep batch SMEM driver",
           "the lockstep batch driver's gain over the scalar driver at "
           "101 bp reads on a multi-Mbp genome (the memory-level "
           "parallelism it extracts)");

    const bool quick = quickMode(argc, argv);
    std::string out_path = flagValue(argc, argv, "--out");
    if (out_path.empty())
        out_path = "BENCH_seed.json";
    const std::string metrics_path = metricsOutPath(argc, argv);

    // At 32 Mbp the index (BWT blocks, SA samples and marks, text:
    // about 2.6 B per reference base) is far larger than a typical LLC,
    // so rank queries miss and batching has latency to hide; 10 Mbp is
    // the mid-size row.
    const std::vector<size_t> genomes = quick
        ? std::vector<size_t>{1u << 20}
        : std::vector<size_t>{10'000'000, 32'000'000};
    const std::vector<size_t> batches =
        quick ? std::vector<size_t>{16} : std::vector<size_t>{4, 16, 64};
    const int reps = quick ? 2 : 3;

    TextTable table;
    table.setHeader({"genome", "reads", "config", "batch", "reads/s",
                     "Mbases/s", "occ/read", "text/read", "speedup"});
    obs::JsonWriter json;
    json.beginObject();
    beginSweepDoc(json, "bench_seed");
    json.key("cells").beginArray();

    double headline_speedup = 0;

    for (size_t genome : genomes) {
        const size_t n_reads = quick ? 1000 : genome / 1000;
        Rng rng(0x5eedbeef);
        ReferenceParams ref_params;
        ref_params.length = genome;
        const Sequence reference = generateReference(ref_params, rng);
        ReadSimulator simulator(reference, ReadSimParams::illumina());
        std::vector<Sequence> reads;
        reads.reserve(n_reads);
        for (size_t i = 0; i < n_reads; ++i)
            reads.push_back(simulator.simulate(rng, i).seq);

        const FmdIndex index(reference);
        std::vector<Config> configs{{"scalar", 1}};
        for (size_t batch : batches)
            configs.push_back({"batch", batch});

        double scalar_reads_per_s = 0;
        for (const Config &cfg : configs) {
            const CellResult res = timeSeeding(index, cfg, reads, reps);
            if (cfg.batch == 1)
                scalar_reads_per_s = res.reads_per_s;
            const double speedup = scalar_reads_per_s > 0
                ? res.reads_per_s / scalar_reads_per_s
                : 0;
            // The headline is measured at 101 bp reads on a >= 10 Mbp
            // genome: every full-sweep genome qualifies, so take the
            // best batch-16 cell across them (the per-genome numbers
            // all stay in the table and the JSON).
            if (cfg.batch == 16)
                headline_speedup = std::max(headline_speedup, speedup);
            appendCell(json, genome, n_reads, cfg, res, speedup);
            table.addRow({strprintf("%.1fM", genome / 1e6),
                          std::to_string(n_reads), cfg.name,
                          std::to_string(cfg.batch),
                          strprintf("%.0f", res.reads_per_s),
                          strprintf("%.1f", res.mbases_per_s),
                          strprintf("%.1f", res.occ_per_read),
                          strprintf("%.1f", res.text_per_read),
                          strprintf("%.2f", speedup)});
        }
    }
    json.endArray();
    json.kv("headline_speedup", headline_speedup);
    json.endObject();

    std::cout << table.render();
    std::cout << "\nheadline speedup (best batch-16 cell vs the scalar "
                 "driver): "
              << headline_speedup << "x\n";

    // Every requested output is attempted; any that fails fails the run.
    bool outputs_ok = obs::writeTextFile(out_path, json.str());
    if (!outputs_ok)
        std::cerr << "[bench] FAILED to write " << out_path << "\n";
    else
        std::cout << "[bench] sweep written to " << out_path << "\n";

    outputs_ok &= writeRunReport(metrics_path, "bench_seed");
    return outputs_ok ? 0 : 1;
}
