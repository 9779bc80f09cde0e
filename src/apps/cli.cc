#include "apps/cli.h"

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "aligner/pipeline.h"
#include "aligner/sam.h"
#include "aligner/stage.h"
#include "aligner/threaded.h"
#include "fmindex/fmd_index.h"
#include "fmindex/sdx.h"
#include "genome/fasta.h"
#include "genome/fastx_stream.h"
#include "genome/read_sim.h"
#include "genome/reference.h"
#include "obs/ledger.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "util/huge_pages.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/table.h"

namespace seedex {

namespace {

/** Thrown for command-line mistakes (mapped to exit code 2). */
class UsageError : public std::runtime_error
{
    using std::runtime_error::runtime_error;
};

const char kUsage[] =
    "usage: seedex <command> [options]\n"
    "\n"
    "commands:\n"
    "  index <ref.fa> -o <ref.sdx>          build a checksummed index\n"
    "  align <ref.sdx|ref.fa> <reads.fq>    align reads, SAM on stdout\n"
    "  align <ref.sdx|ref.fa> -1 <r1.fq> -2 <r2.fq>   paired-end mode\n"
    "  simulate -o <prefix>                 write a synthetic ref + reads\n"
    "\n"
    "align options:\n"
    "  -o FILE             SAM output path (default: stdout)\n"
    "  -1 FILE / -2 FILE   paired-end mate files (zipped record by record)\n"
    "  --interleaved       treat <reads.fq> as interleaved pairs\n"
    "  --insert-mean=F / --insert-sd=F  pin the insert-size model instead\n"
    "                      of bootstrapping it from the first pairs\n"
    "  --no-rescue         disable SeedEx-checked mate rescue\n"
    "  --engine=NAME       fullband | banded | seedex | device   [seedex]\n"
    "                      (device: seedex through the FPGA timing model,\n"
    "                      with device.* counters)\n"
    "  --band=N            band width for the banded, seedex and device\n"
    "                      engines [41]\n"
    "  --threads=N         worker threads, split 3:1 between seeding and\n"
    "                      FPGA threads; 1 runs the same stage inline [1]\n"
    "  --batch=N           reads per slab, at every thread count [64]\n"
    "  --queue-cap=N       hand-off ring capacity in slabs [8]\n"
    "  --metrics-out=FILE  machine-readable run report\n"
    "  --trace-out=FILE    Chrome trace\n"
    "  --ledger-out=FILE   per-read provenance JSONL\n"
    "  --ledger-sample=N   ledger sampling stride, 1 = every read\n"
    "\n"
    "simulate options:\n"
    "  --length=N          reference length in bases        [1048576]\n"
    "  --reads=N           number of reads (pairs with --paired) [10000]\n"
    "  --read-length=N     read length in bases             [101]\n"
    "  --seed=N            random seed                      [20200613]\n"
    "  --paired            write FR mate files <prefix>_1.fq/_2.fq\n"
    "  --insert-mean=F / --insert-sd=F  fragment model      [400 / 50]\n";

/** Parsed command line: positional operands plus --name[=value] flags
 *  (`-o FILE` is folded into flags["-o"]). */
struct Args
{
    std::vector<std::string> positional;
    std::map<std::string, std::string> flags;

    bool has(const std::string &name) const { return flags.count(name) > 0; }

    std::string
    get(const std::string &name, const std::string &fallback = {}) const
    {
        auto it = flags.find(name);
        return it == flags.end() ? fallback : it->second;
    }

    long
    getLong(const std::string &name, long fallback) const
    {
        auto it = flags.find(name);
        if (it == flags.end())
            return fallback;
        char *end = nullptr;
        const long n = std::strtol(it->second.c_str(), &end, 10);
        if (end == it->second.c_str() || *end != '\0')
            throw UsageError(name + " expects an integer, got '" +
                             it->second + "'");
        return n;
    }

    /** getLong for a count that must lie in [min, max]. */
    long
    getCount(const std::string &name, long fallback, long min,
             long max = std::numeric_limits<long>::max()) const
    {
        const long n = getLong(name, fallback);
        if (n < min)
            throw UsageError(name + " must be at least " +
                             std::to_string(min) + ", got " +
                             std::to_string(n));
        if (n > max)
            throw UsageError(name + " must be at most " +
                             std::to_string(max) + ", got " +
                             std::to_string(n));
        return n;
    }

    double
    getDouble(const std::string &name, double fallback) const
    {
        auto it = flags.find(name);
        if (it == flags.end())
            return fallback;
        char *end = nullptr;
        const double x = std::strtod(it->second.c_str(), &end);
        if (end == it->second.c_str() || *end != '\0')
            throw UsageError(name + " expects a number, got '" +
                             it->second + "'");
        return x;
    }
};

Args
parseArgs(int argc, char **argv, int first,
          const std::vector<std::string> &known,
          const std::vector<std::string> &value_shorts = {"-o"})
{
    Args args;
    const auto is_value_short = [&](const std::string &arg) {
        for (const std::string &s : value_shorts)
            if (s == arg)
                return true;
        return false;
    };
    for (int i = first; i < argc; ++i) {
        const std::string arg = argv[i];
        if (is_value_short(arg)) {
            if (i + 1 >= argc)
                throw UsageError(arg + " expects a file path");
            args.flags[arg] = argv[++i];
        } else if (arg.rfind("--", 0) == 0) {
            const size_t eq = arg.find('=');
            const std::string name = arg.substr(0, eq);
            bool ok = false;
            for (const std::string &k : known)
                ok |= (k == name);
            if (!ok)
                throw UsageError("unknown option " + name);
            args.flags[name] =
                eq == std::string::npos ? "" : arg.substr(eq + 1);
        } else {
            args.positional.push_back(arg);
        }
    }
    return args;
}

/** The reference as the aligner consumes it: one concatenated sequence
 *  plus the contig dictionary for SAM emission. */
struct Reference
{
    ContigTable contigs;
    std::vector<SdxContig> sdx_contigs;
    Sequence seq;
    std::unique_ptr<FmdIndex> index; ///< null until built/loaded
};

/** Stream a FASTA file into a Reference (no index yet). */
Reference
loadFasta(const std::string &path)
{
    Reference ref;
    FastaReader reader(path);
    FastaRecord rec;
    std::vector<Base> all;
    while (reader.next(rec)) {
        const std::string token(firstWord(rec.name));
        // FastaReader rejects duplicate full names; tokenized SN keys
        // can still collide ("chr1 a" vs "chr1 b"), which add() rejects.
        ref.contigs.add(token, rec.seq.size());
        ref.sdx_contigs.push_back({token, rec.seq.size()});
        all.insert(all.end(), rec.seq.bases().begin(),
                   rec.seq.bases().end());
    }
    if (all.empty())
        throw std::runtime_error(path + ": no sequences found");
    ref.seq = Sequence(std::move(all));
    return ref;
}

/** Load either a `.sdx` container or a plain FASTA reference, with its
 *  index: a container's stored index, or one built from the FASTA. */
Reference
loadReference(const std::string &path)
{
    if (isSdxFile(path)) {
        SdxData data = loadSdx(path);
        Reference ref;
        for (const SdxContig &c : data.contigs) {
            ref.contigs.add(c.name, c.length);
            ref.sdx_contigs.push_back(c);
        }
        ref.seq = std::move(data.reference);
        ref.index = std::move(data.index);
        return ref;
    }
    Reference ref = loadFasta(path);
    ref.index = std::make_unique<FmdIndex>(ref.seq);
    return ref;
}

EngineKind
parseEngine(const std::string &name)
{
    if (name == "fullband")
        return EngineKind::FullBand;
    if (name == "banded")
        return EngineKind::Banded;
    if (name == "seedex")
        return EngineKind::SeedEx;
    if (name == "device")
        return EngineKind::Device;
    throw UsageError("unknown engine '" + name +
                     "' (expected fullband, banded, seedex, or device)");
}

std::string
joinArgv(int argc, char **argv)
{
    std::string cl;
    for (int i = 0; i < argc; ++i) {
        if (i > 0)
            cl += ' ';
        cl += argv[i];
    }
    return cl;
}

// ---- seedex index -------------------------------------------------------

int
cmdIndex(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv, 2, {});
    if (args.positional.size() != 1)
        throw UsageError("index expects exactly one reference FASTA");
    if (!args.has("-o"))
        throw UsageError("index requires -o <ref.sdx>");

    Reference ref = loadFasta(args.positional[0]);
    Stopwatch watch;
    watch.start();
    const FmdIndex index(ref.seq);
    watch.stop();
    saveSdx(args.get("-o"), ref.sdx_contigs, ref.seq, index);
    std::cerr << strprintf(
        "seedex index: %zu contig(s), %zu bases -> %s (built in %.2f s)\n",
        ref.contigs.size(), ref.seq.size(), args.get("-o").c_str(),
        watch.seconds());
    return 0;
}

// ---- seedex align -------------------------------------------------------

int
cmdAlign(int argc, char **argv)
{
    const Args args = parseArgs(
        argc, argv, 2,
        {"--engine", "--band", "--threads", "--batch", "--queue-cap",
         "--metrics-out", "--trace-out", "--ledger-out", "--ledger-sample",
         "--interleaved", "--insert-mean", "--insert-sd", "--no-rescue"},
        {"-o", "-1", "-2"});

    // Paired-end input shape: -1/-2 (two files, no reads operand) or
    // --interleaved (one file of alternating mates).
    const bool interleaved = args.has("--interleaved");
    if (args.has("-1") != args.has("-2"))
        throw UsageError("-1 and -2 must be given together");
    if (args.has("-1") && interleaved)
        throw UsageError("-1/-2 and --interleaved are mutually exclusive");
    const bool paired = args.has("-1") || interleaved;
    if (args.has("-1")) {
        if (args.positional.size() != 1)
            throw UsageError(
                "align -1/-2 expects exactly <ref.sdx|ref.fa>");
    } else if (args.positional.size() != 2) {
        throw UsageError("align expects <ref.sdx|ref.fa> <reads.fq>");
    }
    if (!paired &&
        (args.has("--insert-mean") || args.has("--insert-sd") ||
         args.has("--no-rescue")))
        throw UsageError("--insert-mean/--insert-sd/--no-rescue require "
                         "paired input (-1/-2 or --interleaved)");
    const std::string reads_path =
        args.has("-1") ? std::string() : args.positional[1];

    // The insert-size model: explicit flags pin it; otherwise it is
    // bootstrapped from the first pairs (the BWA-MEM recipe) and frozen
    // before any consumer needs a proper-pair verdict.
    const bool insert_override =
        args.has("--insert-mean") || args.has("--insert-sd");
    InsertModel insert_prior;
    insert_prior.mean = args.getDouble("--insert-mean", insert_prior.mean);
    insert_prior.sd = args.getDouble("--insert-sd", insert_prior.sd);
    if (insert_prior.mean <= 0 || insert_prior.sd <= 0)
        throw UsageError("--insert-mean/--insert-sd must be positive");
    const bool mate_rescue = !args.has("--no-rescue");

    // Validate every flag before touching the filesystem, so a typo is
    // a usage error (exit 2) even when the inputs are also unreadable.
    // Flags are the only settings: no SEEDEX_* variable reaches the run
    // from here.
    PipelineConfig pconfig;
    pconfig.engine = parseEngine(args.get("--engine", "seedex"));
    pconfig.band =
        static_cast<int>(args.getCount("--band", pconfig.band, 1));
    // Checked even without --ledger-out; the stride is a uint32_t.
    const long ledger_sample =
        args.getCount("--ledger-sample", 1, 1, UINT32_MAX);

    ThreadedConfig tconfig;
    const long threads = args.getCount("--threads", 1, 1);
    tconfig.splitThreads(threads);
    tconfig.batch_size = static_cast<size_t>(args.getCount(
        "--batch", static_cast<long>(tconfig.batch_size), 1));
    tconfig.queue_capacity = static_cast<size_t>(args.getCount(
        "--queue-cap", static_cast<long>(tconfig.queue_capacity), 1));
    const bool threaded = threads > 1;

    // Observability passthrough (same contract as the bench binaries):
    // enabling trace/ledger must happen before the run, writing after.
    const std::string metrics_out = args.get("--metrics-out");
    const std::string trace_out = args.get("--trace-out");
    const std::string ledger_out = args.get("--ledger-out");
    if (!trace_out.empty())
        obs::TraceSession::global().enable();
    if (!ledger_out.empty()) {
        obs::Ledger::global().clear();
        obs::Ledger::global().enable(static_cast<uint32_t>(ledger_sample));
    }

    // Set-up the run waits for before its first read: `.sdx` read and
    // verify, or FASTA parse and index build.
    Stopwatch load_watch;
    Reference ref;
    {
        obs::TraceSpan span("index.load", "fmindex");
        load_watch.start();
        ref = loadReference(args.positional[0]);
        load_watch.stop();
    }
    // Whether the index arrays got 2 MiB pages (0 where THP is off);
    // reading smaps_rollup walks the address space, so only on request.
    const double huge_page_mib =
        metrics_out.empty() ? 0.0 : anonHugePageMib();
    pconfig.contigs = ref.contigs;
    tconfig.pipeline = pconfig;

    std::ofstream file_out;
    if (args.has("-o")) {
        file_out.open(args.get("-o"), std::ios::binary | std::ios::trunc);
        if (!file_out)
            throw std::runtime_error(args.get("-o") +
                                     ": cannot open for writing");
    }
    std::ostream &out = args.has("-o") ? file_out : std::cout;

    out << renderSamHeader(ref.contigs, ref.seq.size(),
                           joinArgv(argc, argv));

    Stopwatch wall;
    wall.start();
    const AlignStage stage(ref.seq, *ref.index, pconfig,
                           tconfig.organization);
    StageCtx ctx(pconfig);

    // One read source for every mode: single-end reads, or whole pairs as
    // two consecutive reads under the pair's name (so mates share a slab;
    // batch sizes are even in paired mode). A parse error ends the stream
    // and is rethrown once the run has drained, so it never unwinds
    // through a pipeline thread. So does a failed write: the sink sets
    // `write_failed` (it is never called concurrently, so only it touches
    // `out`), and the source then ends the stream.
    std::unique_ptr<FastqReader> reader;
    std::unique_ptr<PairedReadSource> pairs;
    if (!paired)
        reader = std::make_unique<FastqReader>(reads_path);
    else if (interleaved)
        pairs = std::make_unique<PairedReadSource>(reads_path);
    else
        pairs = std::make_unique<PairedReadSource>(args.get("-1"),
                                                   args.get("-2"));
    FastqRecord fq;
    PairedRecord pr;
    std::exception_ptr read_error;
    std::atomic<bool> write_failed{false};
    const ReadSource source =
        [&](std::vector<std::pair<std::string, Sequence>> &pulled,
            size_t max) -> size_t {
        if (read_error || write_failed.load(std::memory_order_relaxed))
            return 0;
        size_t n = 0;
        try {
            if (pairs) {
                while (n + 1 < max && pairs->next(pr)) {
                    pulled[n].first = pr.name;
                    pulled[n].second = std::move(pr.first);
                    pulled[n + 1].first = std::move(pr.name);
                    pulled[n + 1].second = std::move(pr.second);
                    n += 2;
                }
            } else {
                // QNAME is the header's first word; a description or
                // tab-separated tags after it would break the record.
                // Unlike pair names, a /1 or /2 suffix stays.
                while (n < max && reader->next(fq)) {
                    fq.name.resize(firstWord(fq.name).size());
                    pulled[n].first = std::move(fq.name);
                    pulled[n].second = std::move(fq.seq);
                    ++n;
                }
            }
        } catch (...) {
            read_error = std::current_exception();
        }
        return n;
    };
    const SamSink sink = [&](size_t, SamRecord &&sam) {
        if (!(out << sam.render() << '\n'))
            write_failed.store(true, std::memory_order_relaxed);
    };

    // Bootstrap slab: the first pairs run steps 1 and 2 on this thread in
    // EVERY mode; their primary records freeze the insert model, so the
    // model — and the output bytes — cannot depend on --threads. Then
    // step 3 pairs them against it like every later slab.
    InsertModel insert_model = insert_prior;
    uint64_t insert_observations = 0;
    PairContext pair_ctx{ref.seq, pconfig.contigs, pconfig.extension,
                         insert_prior, mate_rescue};
    uint64_t total_reads = 0;
    std::vector<std::pair<std::string, Sequence>> pulled(
        paired ? 2 * InsertEstimator::kBootstrapPairs : 0);
    if (const size_t n = paired ? source(pulled, pulled.size()) : 0) {
        SeededBatch slab;
        slab.prepare(n);
        loadSlab(slab, pulled, n, 0);
        seedSlab(stage, ctx, slab);
        extendSlab(stage, ctx, slab);
        if (!insert_override) {
            InsertEstimator est(insert_prior);
            for (size_t i = 0; i + 1 < n; i += 2)
                est.observe(ctx.records[i], ctx.records[i + 1]);
            insert_model = est.freeze();
            insert_observations = est.observations();
        }
        pair_ctx.insert = insert_model;
        finishSlab(ctx, slab, &pair_ctx);
        for (size_t i = 0; i < n; ++i)
            sink(i, std::move(ctx.records[i]));
        total_reads = n;
    }

    ThreadedReport treport;
    if (threaded) {
        tconfig.paired = paired;
        tconfig.insert = insert_model;
        tconfig.mate_rescue = mate_rescue;
        // The bootstrap slab's reads took ledger indices 0..total_reads.
        alignThreadedSource(ref.seq, source, tconfig, sink, &treport,
                            ref.index.get(), total_reads);
        total_reads += treport.reads;
    } else {
        total_reads +=
            alignInline(stage, ctx, source, tconfig.batch_size,
                        paired ? &pair_ctx : nullptr, sink, total_reads);
    }
    wall.stop();
    if (read_error)
        std::rethrow_exception(read_error);
    if (!out.flush())
        throw std::runtime_error(
            (args.has("-o") ? args.get("-o") : std::string("stdout")) +
            ": write failed (disk full?)");

    std::cerr << strprintf(
        "seedex align: %llu reads in %.2f s (%s)\n",
        static_cast<unsigned long long>(total_reads), wall.seconds(),
        threaded ? strprintf("%d seeding + %d fpga threads",
                             tconfig.seeding_threads,
                             tconfig.fpga_threads)
                       .c_str()
                 : "single-threaded");
    if (paired) {
        const PairedCounters pc = pairedCounters();
        std::cerr << strprintf(
            "seedex align: %llu pairs, %llu proper, %llu rescued "
            "(insert %.1f +/- %.1f, %s)\n",
            static_cast<unsigned long long>(pc.pairs),
            static_cast<unsigned long long>(pc.proper),
            static_cast<unsigned long long>(pc.rescues),
            insert_model.mean, insert_model.sd,
            insert_override
                ? "pinned"
                : strprintf("estimated from %llu observation(s)",
                            static_cast<unsigned long long>(
                                insert_observations))
                      .c_str());
    }

    // Every requested output is attempted; any that fails fails the run.
    bool outputs_ok = true;
    const auto wrote = [&](bool ok, const char *what,
                           const std::string &path) {
        if (!ok)
            std::cerr << "seedex align: FAILED to write " << what << " to "
                      << path << "\n";
        outputs_ok &= ok;
    };
    if (!trace_out.empty()) {
        obs::TraceSession::global().disable();
        wrote(obs::TraceSession::global().writeJson(trace_out), "trace",
              trace_out);
    }
    if (!ledger_out.empty())
        wrote(obs::Ledger::global().writeJsonl(ledger_out), "ledger",
              ledger_out);
    if (!metrics_out.empty()) {
        obs::RunReport report("seedex_align");
        report.section("run", [&](obs::JsonWriter &w) {
            w.kv("reads", total_reads);
            w.kv("wall_seconds", wall.seconds());
            w.kv("load_seconds", load_watch.seconds());
            w.kv("huge_page_mib", huge_page_mib);
            w.kv("engine", args.get("--engine", "seedex"));
            w.kv("threads", static_cast<uint64_t>(threads));
            w.kv("threaded", threaded);
        });
        report.section("band_policy", [&](obs::JsonWriter &w) {
            w.kv("base_band", static_cast<int64_t>(pconfig.band));
            w.kv("rerun_cells_saved",
                 obs::MetricsRegistry::global()
                     .counter("seedex.band.rerun_cells_saved")
                     .value());
        });
        if (threaded) {
            report.section("threaded", [&](obs::JsonWriter &w) {
                w.kv("batches", treport.batches);
                w.kv("helped_batches", treport.helped_batches);
                w.kv("extensions", treport.extensions);
                w.kv("reruns", treport.reruns);
                w.kv("seeding_threads", treport.seeding_threads);
                w.kv("fpga_threads", treport.fpga_threads);
                w.kv("batch_size", treport.batch_size);
                w.kv("producer_cpu_seconds", treport.producer_cpu_seconds);
                w.kv("consumer_cpu_seconds", treport.consumer_cpu_seconds);
                w.kv("device_emulation_cpu_seconds",
                     treport.device_emulation_cpu_seconds);
                w.kv("sink_seconds", treport.reorder.sink_seconds);
                w.kv("window_wait_seconds",
                     treport.reorder.window_wait_seconds);
            });
        }
        if (paired) {
            report.section("paired", [&](obs::JsonWriter &w) {
                const PairedCounters pc = pairedCounters();
                w.kv("pairs", pc.pairs);
                w.kv("proper", pc.proper);
                w.kv("rescues", pc.rescues);
                w.kv("rescue_attempts", pc.rescue_attempts);
                w.kv("rescue_extensions", pc.rescue_extensions);
                w.kv("rescue_passes", pc.rescue_passes);
                w.kv("insert_mean", insert_model.mean);
                w.kv("insert_sd", insert_model.sd);
                w.kv("insert_estimated", !insert_override);
                w.kv("insert_observations", insert_observations);
            });
        }
        report.addMetrics(obs::MetricsRegistry::global().snapshot());
        wrote(report.write(metrics_out), "metrics", metrics_out);
    }
    return outputs_ok ? 0 : 1;
}

// ---- seedex simulate ----------------------------------------------------

int
cmdSimulate(int argc, char **argv)
{
    const Args args = parseArgs(
        argc, argv, 2,
        {"--length", "--reads", "--read-length", "--seed", "--paired",
         "--insert-mean", "--insert-sd"});
    if (!args.positional.empty())
        throw UsageError("simulate takes only options");
    if (!args.has("-o"))
        throw UsageError("simulate requires -o <prefix>");
    const std::string prefix = args.get("-o");
    const bool paired = args.has("--paired");
    if (!paired && (args.has("--insert-mean") || args.has("--insert-sd")))
        throw UsageError("--insert-mean/--insert-sd require --paired");

    // Every count is checked before any file is opened.
    ReferenceParams ref_params;
    ref_params.length =
        static_cast<size_t>(args.getCount("--length", 1 << 20, 1));
    ReadSimParams sim_params = ReadSimParams::illumina();
    sim_params.read_length = static_cast<size_t>(args.getCount(
        "--read-length", static_cast<long>(sim_params.read_length), 1));
    if (ref_params.length < sim_params.read_length)
        throw UsageError(strprintf("--length (%zu) must be at least "
                                   "--read-length (%zu)",
                                   ref_params.length,
                                   sim_params.read_length));
    const size_t n_reads =
        static_cast<size_t>(args.getCount("--reads", 10000, 1));
    sim_params.insert_mean =
        args.getDouble("--insert-mean", sim_params.insert_mean);
    sim_params.insert_sd =
        args.getDouble("--insert-sd", sim_params.insert_sd);
    if (sim_params.insert_mean <= 0 || sim_params.insert_sd <= 0)
        throw UsageError("--insert-mean/--insert-sd must be positive");

    Rng rng(static_cast<uint64_t>(args.getLong("--seed", 20200613)));
    const Sequence reference = generateReference(ref_params, rng);
    ReadSimulator simulator(reference, sim_params);

    writeFastaFile(prefix + ".fa", {{"sim", reference}});
    std::string qual;
    const auto open_fq = [&](const std::string &path) {
        std::ofstream fq(path, std::ios::binary | std::ios::trunc);
        if (!fq)
            throw std::runtime_error(path + ": cannot open for writing");
        return fq;
    };
    const auto emit = [&](std::ofstream &fq, const SimulatedRead &read) {
        qual.assign(read.seq.size(), 'I');
        fq << '@' << read.name << '\n'
           << read.seq.toString() << '\n'
           << "+\n"
           << qual << '\n';
    };
    if (paired) {
        // --reads counts PAIRS here: <prefix>_1.fq/_2.fq carry mate i of
        // every fragment, record-aligned for `seedex align -1/-2`.
        std::ofstream fq1 = open_fq(prefix + "_1.fq");
        std::ofstream fq2 = open_fq(prefix + "_2.fq");
        for (size_t i = 0; i < n_reads; ++i) {
            const SimulatedPair pair = simulator.simulatePair(rng, i);
            emit(fq1, pair.first);
            emit(fq2, pair.second);
        }
        if (!fq1.flush())
            throw std::runtime_error(prefix + "_1.fq: write failed");
        if (!fq2.flush())
            throw std::runtime_error(prefix + "_2.fq: write failed");
        std::cerr << strprintf(
            "seedex simulate: %zu bp reference, %zu pairs -> "
            "%s.fa + %s_{1,2}.fq\n",
            reference.size(), n_reads, prefix.c_str(), prefix.c_str());
        return 0;
    }
    std::ofstream fq = open_fq(prefix + ".fq");
    for (size_t i = 0; i < n_reads; ++i) {
        const SimulatedRead read = simulator.simulate(rng, i);
        emit(fq, read);
    }
    if (!fq.flush())
        throw std::runtime_error(prefix + ".fq: write failed");
    std::cerr << strprintf(
        "seedex simulate: %zu bp reference, %zu reads -> %s.{fa,fq}\n",
        reference.size(), n_reads, prefix.c_str());
    return 0;
}

} // namespace

int
runCli(int argc, char **argv)
{
    try {
        if (argc < 2)
            throw UsageError("no command given");
        const std::string cmd = argv[1];
        if (cmd == "--version" || cmd == "version") {
            std::cout << "seedex " << kSeedexVersion << "\n";
            return 0;
        }
        if (cmd == "--help" || cmd == "help" || cmd == "-h") {
            std::cout << kUsage;
            return 0;
        }
        if (cmd == "index")
            return cmdIndex(argc, argv);
        if (cmd == "align")
            return cmdAlign(argc, argv);
        if (cmd == "simulate")
            return cmdSimulate(argc, argv);
        throw UsageError("unknown command '" + cmd + "'");
    } catch (const UsageError &e) {
        std::cerr << "seedex: " << e.what() << "\n\n" << kUsage;
        return 2;
    } catch (const std::exception &e) {
        std::cerr << "seedex: " << e.what() << "\n";
        return 1;
    }
}

} // namespace seedex
