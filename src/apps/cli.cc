#include "apps/cli.h"

#include <cstdlib>
#include <exception>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "aligner/pipeline.h"
#include "aligner/sam.h"
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
    "align options (env-knob equivalents in parentheses):\n"
    "  -o FILE             SAM output path (default: stdout)\n"
    "  -1 FILE / -2 FILE   paired-end mate files (zipped record by record)\n"
    "  --interleaved       treat <reads.fq> as interleaved pairs\n"
    "  --insert-mean=F / --insert-sd=F  pin the insert-size model instead\n"
    "                      of bootstrapping it from the first pairs\n"
    "  --no-rescue         disable SeedEx-checked mate rescue\n"
    "  --engine=NAME       fullband | banded | seedex   [seedex]\n"
    "  --band=N            band width for banded/seedex engines "
    "(SEEDEX_BAND)\n"
    "  --threads=N         total worker threads (SEEDEX_THREADS); 1 =\n"
    "                      single-threaded in-process pipeline\n"
    "  --seeding-threads=N / --fpga-threads=N  explicit 3:1 split override\n"
    "  --batch=N           reads per pipeline batch (SEEDEX_BATCH)\n"
    "  --queue-cap=N       ring capacity per shard (SEEDEX_QUEUE_CAP)\n"
    "  --queue-shards=N    ring shards (SEEDEX_QUEUE_SHARDS)\n"
    "  --kernel=NAME       scalar | sse | avx2 | auto (SEEDEX_KERNEL)\n"
    "  --fm-layout=NAME    naive | packed (SEEDEX_FM_LAYOUT)\n"
    "  --kmer=K            seed k-mer table size, 0-12, 0 = off\n"
    "                      (SEEDEX_SEED_KMER)\n"
    "  --metrics-out=FILE  machine-readable run report (SEEDEX_METRICS_OUT)\n"
    "  --trace-out=FILE    Chrome trace (SEEDEX_TRACE)\n"
    "  --ledger-out=FILE   per-read provenance JSONL (SEEDEX_LEDGER_OUT)\n"
    "  --ledger-sample=N   ledger sampling stride (SEEDEX_LEDGER_SAMPLE)\n"
    "\n"
    "simulate options:\n"
    "  --length=N          reference length in bases        [1048576]\n"
    "  --reads=N           number of reads (pairs with --paired) [10000]\n"
    "  --read-length=N     read length in bases             [101]\n"
    "  --seed=N            random seed                      [20200613]\n"
    "  --paired            write FR mate files <prefix>_1.fq/_2.fq\n"
    "  --insert-mean=F / --insert-sd=F  fragment model      [400 / 50]\n"
    "\n"
    "index options:\n"
    "  --kmer=K            seed k-mer table size, 0-12, 0 = off\n"
    "  --fm-layout=NAME    naive | packed occ layout stored in the index\n";

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

    /** Flag value, falling back to an environment variable, then "". */
    std::string
    getOrEnv(const std::string &name, const char *env) const
    {
        auto it = flags.find(name);
        if (it != flags.end())
            return it->second;
        if (const char *v = std::getenv(env))
            return v;
        return {};
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

    /** getLong for a count that must be at least `min`. */
    long
    getCount(const std::string &name, long fallback, long min) const
    {
        const long n = getLong(name, fallback);
        if (n < min)
            throw UsageError(name + " must be at least " +
                             std::to_string(min) + ", got " +
                             std::to_string(n));
        return n;
    }

    /** Flag value that must be one of `choices`; "" when absent. */
    std::string
    getChoice(const std::string &name,
              std::initializer_list<const char *> choices) const
    {
        if (!has(name))
            return {};
        const std::string value = get(name);
        std::string expected;
        for (const char *c : choices) {
            if (value == c)
                return value;
            expected += expected.empty() ? c : std::string("|") + c;
        }
        throw UsageError(name + " expects " + expected + ", got '" + value +
                         "'");
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

/** Forward a CLI flag into the env knob the subsystem reads lazily
 *  (kernel dispatch is resolved once per process, on first use, so
 *  setting the variable up front is equivalent). */
void
exportKnob(const Args &args, const std::string &flag, const char *env)
{
    if (args.has(flag))
        setenv(env, args.get(flag).c_str(), 1);
}

/** FM-index options: --fm-layout and --kmer, each falling back to its
 *  environment knob (FmdIndexOptions::fromEnv) when absent. */
FmdIndexOptions
indexOptions(const Args &args)
{
    FmdIndexOptions options = FmdIndexOptions::fromEnv();
    const std::string layout =
        args.getChoice("--fm-layout", {"naive", "packed"});
    if (!layout.empty())
        options.layout =
            layout == "naive" ? FmLayout::Naive : FmLayout::Packed;
    if (args.has("--kmer")) {
        const long k = args.getCount("--kmer", 0, 0);
        if (k > 12)
            throw UsageError("--kmer must be at most 12, got " +
                             std::to_string(k));
        options.kmer_k = static_cast<int>(k);
    }
    return options;
}

/** First whitespace-delimited token of a FASTA name: the @SQ SN: key
 *  (SN values must be whitespace-free per the SAM spec). */
std::string
contigToken(const std::string &name)
{
    const size_t ws = name.find_first_of(" \t");
    return ws == std::string::npos ? name : name.substr(0, ws);
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
        const std::string token = contigToken(rec.name);
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
 *  index: a container's stored index (its layout kept, the k-mer table
 *  rebuilt per `options.kmer_k`), or one built from the FASTA. */
Reference
loadReference(const std::string &path, const FmdIndexOptions &options)
{
    if (isSdxFile(path)) {
        SdxData data = loadSdx(path, options.kmer_k);
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
    ref.index = std::make_unique<FmdIndex>(ref.seq, options);
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
    throw UsageError("unknown engine '" + name +
                     "' (expected fullband, banded, or seedex)");
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
    const Args args = parseArgs(argc, argv, 2, {"--kmer", "--fm-layout"});
    if (args.positional.size() != 1)
        throw UsageError("index expects exactly one reference FASTA");
    if (!args.has("-o"))
        throw UsageError("index requires -o <ref.sdx>");
    const FmdIndexOptions options = indexOptions(args);

    Reference ref = loadFasta(args.positional[0]);
    Stopwatch watch;
    watch.start();
    const FmdIndex index(ref.seq, options);
    watch.stop();
    saveSdx(args.get("-o"), ref.sdx_contigs, ref.seq, index);
    std::cerr << strprintf(
        "seedex index: %zu contig(s), %zu bases -> %s (built in %.2f s)\n",
        ref.contigs.size(), ref.seq.size(), args.get("-o").c_str(),
        watch.seconds());
    return 0;
}

// ---- seedex align -------------------------------------------------------

/** How many reads the single-threaded path pulls per alignBatch call
 *  (bounds memory to one chunk while keeping lockstep seeding fed). */
constexpr size_t kAlignChunk = 1024;

int
cmdAlign(int argc, char **argv)
{
    const Args args = parseArgs(
        argc, argv, 2,
        {"--engine", "--band", "--threads", "--seeding-threads",
         "--fpga-threads", "--batch", "--queue-cap", "--queue-shards",
         "--kernel", "--fm-layout", "--kmer", "--metrics-out",
         "--trace-out", "--ledger-out", "--ledger-sample",
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
    PipelineConfig pconfig;
    pconfig.engine = parseEngine(args.get("--engine", "seedex"));
    // The band follows the CLI-wide precedence contract: an explicit
    // flag beats the SEEDEX_* environment variable, which beats the
    // built-in default (see the README flag table).
    if (args.has("--band")) {
        pconfig.band =
            static_cast<int>(args.getCount("--band", pconfig.band, 1));
    } else if (const char *v = std::getenv("SEEDEX_BAND")) {
        char *end = nullptr;
        const long n = std::strtol(v, &end, 10);
        if (end != v && *end == '\0' && n > 0)
            pconfig.band = static_cast<int>(n);
    }
    // The dispatcher itself falls back silently on a name it does not
    // know, so the flag is checked here.
    args.getChoice("--kernel", {"scalar", "sse", "avx2", "auto"});
    exportKnob(args, "--kernel", "SEEDEX_KERNEL");
    const FmdIndexOptions index_options = indexOptions(args);

    // Threading shape: env knobs first (ThreadedConfig::applyEnv), then
    // flags override. --threads picks the paper's 3:1 split; the
    // explicit per-side flags override that.
    ThreadedConfig tconfig;
    tconfig.applyEnv();
    long threads = 1;
    if (const char *v = std::getenv("SEEDEX_THREADS"))
        threads = std::max(1L, std::strtol(v, nullptr, 10));
    threads = args.getCount("--threads", threads, 1);
    tconfig.seeding_threads =
        static_cast<int>(std::max<long>(1, (threads * 3) / 4));
    tconfig.fpga_threads = static_cast<int>(
        std::max<long>(1, threads - tconfig.seeding_threads));
    tconfig.seeding_threads = static_cast<int>(args.getCount(
        "--seeding-threads", tconfig.seeding_threads, 1));
    tconfig.fpga_threads = static_cast<int>(
        args.getCount("--fpga-threads", tconfig.fpga_threads, 1));
    tconfig.batch_size = static_cast<size_t>(args.getCount(
        "--batch", static_cast<long>(tconfig.batch_size), 1));
    tconfig.queue_capacity = static_cast<size_t>(args.getCount(
        "--queue-cap", static_cast<long>(tconfig.queue_capacity), 1));
    tconfig.queue_shards = static_cast<int>(args.getCount(
        "--queue-shards", tconfig.queue_shards, 0));

    bool threaded = threads > 1 || args.has("--seeding-threads") ||
        args.has("--fpga-threads");
    // The threaded path always drives the SeedEx device pipeline (its
    // output is bit-identical to fullband by the optimality guarantee);
    // the unguaranteed banded engine only exists single-threaded.
    if (threaded && pconfig.engine == EngineKind::Banded) {
        std::cerr << "seedex align: --engine=banded is single-threaded; "
                     "ignoring --threads\n";
        threaded = false;
    }

    // Observability passthrough (same contract as the bench binaries):
    // enabling trace/ledger must happen before the run, writing after.
    const std::string metrics_out =
        args.getOrEnv("--metrics-out", "SEEDEX_METRICS_OUT");
    const std::string trace_out =
        args.getOrEnv("--trace-out", "SEEDEX_TRACE");
    const std::string ledger_out =
        args.getOrEnv("--ledger-out", "SEEDEX_LEDGER_OUT");
    if (!trace_out.empty())
        obs::TraceSession::global().enable();
    if (!ledger_out.empty()) {
        const long sample = std::max(
            1L, args.getLong("--ledger-sample", 1));
        obs::Ledger::global().clear();
        obs::Ledger::global().enable(static_cast<uint32_t>(sample));
    }

    // Set-up the run waits for before its first read: `.sdx` read,
    // verify and k-mer build, or FASTA parse and index build.
    Stopwatch load_watch;
    Reference ref;
    {
        obs::TraceSpan span("index.load", "fmindex");
        load_watch.start();
        ref = loadReference(args.positional[0], index_options);
        load_watch.stop();
    }
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
    Aligner aligner(ref.seq, pconfig, std::move(ref.index));

    // One read source for every mode: single-end reads, or whole pairs as
    // two consecutive reads under the pair's name (so mates share a slab;
    // batch sizes are even in paired mode). A parse error ends the stream
    // and is rethrown once the run has drained, so it never unwinds
    // through a pipeline thread.
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
    const ReadSource source =
        [&](std::vector<std::pair<std::string, Sequence>> &pulled,
            size_t max) -> size_t {
        if (read_error)
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
                while (n < max && reader->next(fq)) {
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
        out << sam.render() << '\n';
    };

    // Inline alignment of one pulled chunk; false at the end of the
    // input or on a parse error.
    std::vector<std::pair<std::string, Sequence>> chunk;
    std::vector<SamRecord> recs;
    const auto align_chunk = [&](size_t max) {
        chunk.resize(max);
        chunk.resize(source(chunk, max));
        if (chunk.empty() || read_error)
            return false;
        recs = aligner.alignBatch(chunk);
        return true;
    };

    // Bootstrap chunk: the first pairs are aligned by the single-threaded
    // Aligner in EVERY mode, so the frozen insert model — and the output
    // bytes — cannot depend on --threads.
    InsertModel insert_model = insert_prior;
    uint64_t insert_observations = 0;
    if (paired && align_chunk(2 * InsertEstimator::kBootstrapPairs) &&
        !insert_override) {
        InsertEstimator est(insert_prior);
        for (size_t i = 0; i + 1 < recs.size(); i += 2)
            est.observe(recs[i], recs[i + 1]);
        insert_model = est.freeze();
        insert_observations = est.observations();
    }
    const PairContext pair_ctx{ref.seq, pconfig.contigs, pconfig.extension,
                               insert_model, mate_rescue};
    uint64_t total_reads = 0;
    const auto emit_chunk = [&] {
        for (size_t i = 0; i < recs.size(); ++i) {
            if (paired && i % 2 == 0)
                finalizePair(recs[i], recs[i + 1], chunk[i].second,
                             chunk[i + 1].second, aligner.engine(),
                             pair_ctx);
            sink(total_reads + i, std::move(recs[i]));
        }
        total_reads += recs.size();
        recs.clear();
    };
    emit_chunk(); // the bootstrap chunk (nothing when single-end)

    ThreadedReport treport;
    if (threaded) {
        tconfig.paired = paired;
        tconfig.insert = insert_model;
        tconfig.mate_rescue = mate_rescue;
        alignThreadedSource(ref.seq, source, tconfig, sink, &treport,
                            &aligner.index());
        total_reads += treport.reads;
    } else {
        // Stop at the first chunk whose write fails.
        while (out && align_chunk(kAlignChunk))
            emit_chunk();
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

    if (!trace_out.empty()) {
        obs::TraceSession::global().disable();
        if (!obs::TraceSession::global().writeJson(trace_out))
            std::cerr << "seedex align: FAILED to write trace to "
                      << trace_out << "\n";
    }
    if (!ledger_out.empty() &&
        !obs::Ledger::global().writeJsonl(ledger_out))
        std::cerr << "seedex align: FAILED to write ledger to "
                  << ledger_out << "\n";
    if (!metrics_out.empty()) {
        obs::RunReport report("seedex_align");
        report.section("run", [&](obs::JsonWriter &w) {
            w.kv("reads", total_reads);
            w.kv("wall_seconds", wall.seconds());
            w.kv("load_seconds", load_watch.seconds());
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
        if (!report.write(metrics_out))
            std::cerr << "seedex align: FAILED to write metrics to "
                      << metrics_out << "\n";
    }
    return 0;
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

    Rng rng(static_cast<uint64_t>(args.getLong("--seed", 20200613)));
    ReferenceParams ref_params;
    ref_params.length =
        static_cast<size_t>(args.getLong("--length", 1 << 20));
    const Sequence reference = generateReference(ref_params, rng);

    ReadSimParams sim_params = ReadSimParams::illumina();
    sim_params.read_length = static_cast<size_t>(
        args.getLong("--read-length",
                     static_cast<long>(sim_params.read_length)));
    sim_params.insert_mean =
        args.getDouble("--insert-mean", sim_params.insert_mean);
    sim_params.insert_sd =
        args.getDouble("--insert-sd", sim_params.insert_sd);
    if (sim_params.insert_mean <= 0 || sim_params.insert_sd <= 0)
        throw UsageError("--insert-mean/--insert-sd must be positive");
    ReadSimulator simulator(reference, sim_params);
    const size_t n_reads =
        static_cast<size_t>(args.getLong("--reads", 10000));

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
