// Traced re-run of one `seedex align` configuration for the end-to-end
// benchmark: the same pipeline the CLI runs, driven from here so every
// call into a layer's public functions can be timed from outside the
// program.
//
//   perfbench_trace --sdx=ref.sdx --reads=r.fq --threads=N
//                   --pg=CMDLINE -o out.sam --json=layers.json
//   perfbench_trace --sdx=ref.sdx --r1=r1.fq --r2=r2.fq --threads=1 ...
//
// Single-end input runs the threaded pipeline (alignThreadedSource with
// a timed ReadSource and SamSink); paired input runs the single-threaded
// path call by call: parse, batch seeding, chaining, extendChain, best
// pick + buildSamRecord, the insert bootstrap, finalizePair, render and
// write. `--pg` must be the untraced run's command line so that the SAM
// written here is byte-comparable with it. The JSON holds raw layer
// times, MetricsRegistry deltas and the ThreadedReport; the benchmark
// derives its per-layer metrics from them.

#include <algorithm>
#include <chrono>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "aligner/paired.h"
#include "aligner/pipeline.h"
#include "aligner/sam.h"
#include "aligner/seeding.h"
#include "aligner/threaded.h"
#include "fmindex/sdx.h"
#include "genome/fastx_stream.h"
#include "obs/json.h"
#include "obs/metrics.h"

namespace {

using namespace seedex;
using Clock = std::chrono::steady_clock;

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Busy seconds per layer, plus the work counts only the traced run sees. */
struct Layers
{
    std::map<std::string, double> seconds;
    uint64_t reads = 0;
    uint64_t seeds = 0;
    uint64_t chains = 0;
    uint64_t primary_extensions = 0;
    /** Every engine extension, mate rescue included. */
    uint64_t engine_extensions = 0;
    /** Reads the seed/chain counts were taken over. */
    uint64_t counted_reads = 0;
};

using ReadBatch = std::vector<std::pair<std::string, Sequence>>;

/**
 * Aligner::alignBatch, call by call: lockstep seeding per seed batch,
 * then per read chaining, extension of every chain, and the best/
 * runner-up pick with buildSamRecord. Same calls in the same order, so
 * the records are byte-identical to the CLI's.
 */
std::vector<SamRecord>
alignBatchTraced(Aligner &aligner, const ReadBatch &reads, Layers &layers)
{
    const PipelineConfig &cfg = aligner.config();
    ExtensionEngine &engine = aligner.engine();
    std::vector<SamRecord> records;
    records.reserve(reads.size());
    const size_t batch = std::max<size_t>(1, seedBatchSize());
    SeedWorkspace &ws = SeedWorkspace::tls();
    std::vector<const Sequence *> queries(batch);
    std::vector<std::vector<Seed>> seeds(batch);
    std::vector<Chain> chains;
    std::vector<ChainAlignment> results;
    for (size_t base = 0; base < reads.size(); base += batch) {
        const size_t n = std::min(batch, reads.size() - base);
        auto t = Clock::now();
        if (batch == 1) {
            seeds[0] = collectSeeds(aligner.index(), reads[base].second,
                                    cfg.seeding);
        } else {
            for (size_t r = 0; r < n; ++r)
                queries[r] = &reads[base + r].second;
            collectSeedsBatch(aligner.index(), queries.data(), n,
                              cfg.seeding, ws, seeds);
        }
        layers.seconds["aligner.seeding"] += since(t);

        for (size_t r = 0; r < n; ++r) {
            const std::string &name = reads[base + r].first;
            const Sequence &read = reads[base + r].second;
            layers.seeds += seeds[r].size();
            t = Clock::now();
            const size_t n_chains = chainSeedsInto(
                seeds[r], cfg.chaining, ChainWorkspace::tls(), chains);
            layers.seconds["aligner.chaining"] += since(t);
            layers.chains += n_chains;
            if (n_chains == 0) {
                t = Clock::now();
                records.push_back(unmappedRecord(name, read));
                layers.seconds["aligner.postprocess"] += since(t);
                continue;
            }

            t = Clock::now();
            const uint64_t calls_before = engine.calls();
            const Sequence rc = read.reverseComplement();
            results.clear();
            for (size_t c = 0; c < n_chains; ++c)
                results.push_back(extendChain(chains[c],
                                              chains[c].reverse ? rc : read,
                                              aligner.reference(), engine,
                                              cfg.extension));
            layers.primary_extensions += engine.calls() - calls_before;
            layers.seconds["aligner.extension"] += since(t);

            t = Clock::now();
            size_t best = 0;
            int sub = 0;
            for (size_t i = 1; i < results.size(); ++i) {
                if (results[i].score > results[best].score) {
                    sub = results[best].score;
                    best = i;
                } else {
                    sub = std::max(sub, results[i].score);
                }
            }
            records.push_back(buildSamRecord(name, read, results[best], sub,
                                             aligner.reference(),
                                             cfg.extension.scoring,
                                             cfg.contigs));
            layers.seconds["aligner.postprocess"] += since(t);
        }
    }
    layers.counted_reads += reads.size();
    return records;
}

/** The CLI's paired single-threaded path (bootstrap chunk, frozen
 *  insert model, then chunks of kAlignChunk reads). */
void
runPaired(SdxData &data, const PipelineConfig &pconfig,
          const std::string &r1, const std::string &r2, std::ostream &out,
          Layers &layers)
{
    constexpr size_t kAlignChunk = 1024;
    const Sequence &reference = data.reference;
    PairedReadSource source(r1, r2);
    Aligner aligner(reference, pconfig, std::move(data.index));
    const uint64_t calls_before = aligner.engine().calls();

    ReadBatch chunk;
    PairedRecord pr;
    auto t = Clock::now();
    while (chunk.size() < 2 * InsertEstimator::kBootstrapPairs &&
           source.next(pr)) {
        chunk.emplace_back(pr.name, std::move(pr.first));
        chunk.emplace_back(std::move(pr.name), std::move(pr.second));
    }
    layers.seconds["genome.parse"] += since(t);
    std::vector<SamRecord> recs = alignBatchTraced(aligner, chunk, layers);

    t = Clock::now();
    InsertEstimator estimator{InsertModel{}};
    for (size_t i = 0; i + 1 < recs.size(); i += 2)
        estimator.observe(recs[i], recs[i + 1]);
    const PairContext ctx{reference, pconfig.contigs, pconfig.extension,
                          estimator.freeze(), true};
    layers.seconds["paired.bootstrap"] += since(t);

    std::string line1, line2;
    const auto finalize_and_emit = [&]() {
        for (size_t i = 0; i + 1 < recs.size(); i += 2) {
            auto t0 = Clock::now();
            finalizePair(recs[i], recs[i + 1], chunk[i].second,
                         chunk[i + 1].second, aligner.engine(), ctx);
            auto t1 = Clock::now();
            line1 = recs[i].render();
            line2 = recs[i + 1].render();
            auto t2 = Clock::now();
            out << line1 << '\n' << line2 << '\n';
            auto t3 = Clock::now();
            using std::chrono::duration;
            layers.seconds["paired.finalize"] +=
                duration<double>(t1 - t0).count();
            layers.seconds["aligner.render"] +=
                duration<double>(t2 - t1).count();
            layers.seconds["apps.write"] += duration<double>(t3 - t2).count();
        }
        layers.reads += recs.size();
    };
    finalize_and_emit();

    for (;;) {
        t = Clock::now();
        chunk.clear();
        while (chunk.size() < kAlignChunk && source.next(pr)) {
            chunk.emplace_back(pr.name, std::move(pr.first));
            chunk.emplace_back(std::move(pr.name), std::move(pr.second));
        }
        layers.seconds["genome.parse"] += since(t);
        if (chunk.empty())
            break;
        recs = alignBatchTraced(aligner, chunk, layers);
        finalize_and_emit();
    }
    layers.engine_extensions = aligner.engine().calls() - calls_before;
}

/** The CLI's threaded single-end path with timed source and sink. */
ThreadedReport
runThreaded(SdxData &data, const PipelineConfig &pconfig, int threads,
            const std::string &reads_path, std::ostream &out, Layers &layers)
{
    ThreadedConfig tconfig;
    tconfig.applyEnv();
    tconfig.seeding_threads = std::max(1, (threads * 3) / 4);
    tconfig.fpga_threads = std::max(1, threads - tconfig.seeding_threads);
    tconfig.pipeline = pconfig;

    FastqReader reader(reads_path);
    FastqRecord rec;
    std::exception_ptr read_error;
    double parse = 0, source_s = 0, sink_s = 0, render = 0, write = 0;
    // Called under the pipeline's source mutex, so no locking here.
    const ReadSource source = [&](ReadBatch &pulled, size_t max) -> size_t {
        if (read_error)
            return 0;
        const auto t0 = Clock::now();
        size_t n = 0;
        try {
            while (n < max) {
                const auto tp = Clock::now();
                const bool more = reader.next(rec);
                parse += since(tp);
                if (!more)
                    break;
                pulled[n].first = std::move(rec.name);
                pulled[n].second = std::move(rec.seq);
                ++n;
            }
        } catch (...) {
            read_error = std::current_exception();
        }
        source_s += since(t0);
        return n;
    };
    // Never called concurrently (the reorder window serializes it).
    std::string line;
    const SamSink sink = [&](size_t, SamRecord &&sam) {
        const auto t0 = Clock::now();
        line = sam.render();
        const auto t1 = Clock::now();
        out << line << '\n';
        const auto t2 = Clock::now();
        using std::chrono::duration;
        render += duration<double>(t1 - t0).count();
        write += duration<double>(t2 - t1).count();
        sink_s += duration<double>(t2 - t0).count();
    };
    ThreadedReport report;
    alignThreadedSource(data.reference, source, tconfig, sink, &report,
                        data.index.get());
    if (read_error)
        std::rethrow_exception(read_error);
    layers.reads = report.reads;
    layers.seconds["genome.parse"] = parse;
    layers.seconds["threaded.source"] = source_s;
    layers.seconds["threaded.sink"] = sink_s;
    layers.seconds["aligner.render"] = render;
    layers.seconds["apps.write"] = write;
    return report;
}

/** Seeds and chains per read over the first `limit` reads: the threaded
 *  pipeline keeps these counts inside its slabs, so they are recounted
 *  here with the same calls, outside the timed run. */
void
countSeedsAndChains(const SdxData &data, const PipelineConfig &pconfig,
                    const std::string &reads_path, uint64_t limit,
                    Layers &layers)
{
    FastqReader reader(reads_path);
    FastqRecord rec;
    SeedWorkspace &ws = SeedWorkspace::tls();
    std::vector<Sequence> reads;
    std::vector<std::vector<Seed>> seeds(1);
    std::vector<Chain> chains;
    while (reads.size() < limit && reader.next(rec))
        reads.push_back(std::move(rec.seq));
    for (const Sequence &read : reads) {
        const Sequence *q = &read;
        collectSeedsBatch(*data.index, &q, 1, pconfig.seeding, ws, seeds);
        layers.seeds += seeds[0].size();
        layers.chains += chainSeedsInto(seeds[0], pconfig.chaining,
                                        ChainWorkspace::tls(), chains);
    }
    layers.counted_reads = reads.size();
}

void
writeJson(const std::string &path, double load_s, double wall_s,
          const Layers &layers, const ThreadedReport &tr,
          const obs::MetricsSnapshot &snap, int threads)
{
    obs::JsonWriter w;
    w.beginObject();
    w.kv("load_s", load_s);
    w.kv("wall_s", wall_s);
    w.kv("threads", threads);
    w.kv("reads", layers.reads);
    w.kv("seeds", layers.seeds);
    w.kv("chains", layers.chains);
    w.kv("counted_reads", layers.counted_reads);
    w.kv("primary_extensions", layers.primary_extensions);
    w.kv("engine_extensions", layers.engine_extensions);
    for (const auto &[name, sec] : layers.seconds)
        w.kv("layer." + name, sec);
    for (const auto &[name, value] : snap.counters)
        w.kv("counter." + name, value);
    for (const auto &[name, value] : snap.gauges)
        w.kv("gauge_max." + name, value.second);
    for (const auto &[name, h] : snap.histograms)
        w.kv("histogram_count." + name, h.count);
    w.kv("threaded.wall_s", tr.wall_seconds);
    w.kv("threaded.extensions", tr.extensions);
    w.kv("threaded.reruns", tr.reruns);
    w.kv("threaded.device_cycles", tr.device_cycles);
    w.kv("threaded.producer_cpu_s", tr.producer_cpu_seconds);
    w.kv("threaded.consumer_cpu_s", tr.consumer_cpu_seconds);
    w.kv("threaded.device_lock_s", tr.device_emulation_cpu_seconds);
    w.kv("threaded.threads", tr.seeding_threads + tr.fpga_threads);
    w.kv("threaded.queue_publishes", tr.queue.publishes);
    w.kv("threaded.queue_claims", tr.queue.claims);
    w.kv("threaded.queue_max_depth", tr.queue.max_depth);
    w.kv("threaded.pool_hit_frac", tr.pool.hitRate());
    w.kv("threaded.reorder_max_pending", tr.reorder.max_pending);
    w.endObject();
    if (!obs::writeTextFile(path, w.str()))
        throw std::runtime_error(path + ": write failed");
}

int
run(int argc, char **argv)
{
    std::map<std::string, std::string> flags;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "-o" && i + 1 < argc) {
            flags["-o"] = argv[++i];
            continue;
        }
        const size_t eq = arg.find('=');
        if (arg.rfind("--", 0) != 0 || eq == std::string::npos)
            throw std::runtime_error("bad argument '" + arg + "'");
        flags[arg.substr(0, eq)] = arg.substr(eq + 1);
    }
    for (const char *required : {"--sdx", "--threads", "--pg", "-o", "--json"})
        if (!flags.count(required))
            throw std::runtime_error(std::string("missing ") + required);
    const bool paired = flags.count("--r1") && flags.count("--r2");
    if (!paired && !flags.count("--reads"))
        throw std::runtime_error("give --reads or --r1/--r2");
    const int threads = std::stoi(flags["--threads"]);
    // The two configurations the benchmark's workloads run.
    if (paired ? threads != 1 : threads < 2)
        throw std::runtime_error(
            "traced runs cover paired --threads=1 and single-end "
            "--threads>1 only");

    auto t = Clock::now();
    SdxData data = loadSdx(flags["--sdx"]);
    const double load_s = since(t);

    PipelineConfig pconfig;
    pconfig.engine = EngineKind::SeedEx;
    for (const SdxContig &c : data.contigs)
        pconfig.contigs.add(c.name, c.length);

    std::ofstream out(flags["-o"], std::ios::binary | std::ios::trunc);
    if (!out)
        throw std::runtime_error(flags["-o"] + ": cannot open for writing");
    out << renderSamHeader(pconfig.contigs, data.reference.size(),
                           flags["--pg"]);

    obs::MetricsRegistry::global().reset();
    Layers layers;
    ThreadedReport report;
    t = Clock::now();
    if (paired)
        runPaired(data, pconfig, flags["--r1"], flags["--r2"], out, layers);
    else
        report = runThreaded(data, pconfig, threads, flags["--reads"], out,
                             layers);
    const double wall_s = since(t);
    out.flush();
    if (!out)
        throw std::runtime_error(flags["-o"] + ": write failed");
    const obs::MetricsSnapshot snap =
        obs::MetricsRegistry::global().snapshot();
    if (!paired)
        countSeedsAndChains(data, pconfig, flags["--reads"], 16384, layers);
    writeJson(flags["--json"], load_s, wall_s, layers, report, snap,
              threads);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(argc, argv);
    } catch (const std::exception &e) {
        std::cerr << "perfbench_trace: " << e.what() << "\n";
        return 1;
    }
}
