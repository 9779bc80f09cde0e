#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "aligner/pipeline.h"
#include "aligner/sam.h"
#include "apps/cli.h"
#include "fmindex/sdx.h"
#include "genome/fasta.h"
#include "genome/fastx_stream.h"
#include "genome/read_sim.h"
#include "genome/reference.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace seedex {
namespace {

// ---- helpers ------------------------------------------------------------

/** Drive the CLI in-process with a literal argv. */
int
cli(std::initializer_list<std::string> args)
{
    std::vector<std::string> store(args);
    std::vector<char *> argv;
    for (std::string &s : store)
        argv.push_back(s.data());
    return runCli(static_cast<int>(argv.size()), argv.data());
}

/** Every path tempPath() handed out in this process. */
std::vector<std::string> &
tempPaths()
{
    static std::vector<std::string> paths;
    return paths;
}

/** Removes this process's scratch files once its tests are done. */
class TempCleanup : public ::testing::Environment
{
  public:
    void
    TearDown() override
    {
        for (const std::string &p : tempPaths())
            std::remove(p.c_str());
    }
};

const ::testing::Environment *const kTempCleanup =
    ::testing::AddGlobalTestEnvironment(new TempCleanup);

/** Per-process scratch path: ctest runs every case as its own process,
 *  possibly in parallel, so a shared name would let one case read
 *  another's half-written file. */
std::string
tempPath(const std::string &name)
{
    tempPaths().push_back(::testing::TempDir() + "seedex_cli_" +
                          std::to_string(getpid()) + "_" + name);
    return tempPaths().back();
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

std::vector<std::string>
splitTabs(const std::string &line)
{
    std::vector<std::string> fields;
    size_t start = 0;
    for (;;) {
        const size_t tab = line.find('\t', start);
        if (tab == std::string::npos) {
            fields.push_back(line.substr(start));
            return fields;
        }
        fields.push_back(line.substr(start, tab - start));
        start = tab + 1;
    }
}

/** One alignment line parsed back out of a SAM file. */
struct ParsedSam
{
    std::string qname;
    int flag = 0;
    std::string rname;
    uint64_t pos = 0; ///< 1-based, as rendered
    int mapq = 0;
    std::string cigar;
    int64_t tlen = 0;
    int score = 0; ///< AS:i:
};

struct ParsedSamFile
{
    std::vector<std::string> header;
    std::vector<ParsedSam> records;
};

ParsedSamFile
parseSamFile(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << path;
    ParsedSamFile sam;
    std::string line;
    while (std::getline(in, line)) {
        if (!line.empty() && line[0] == '@') {
            sam.header.push_back(line);
            continue;
        }
        const std::vector<std::string> f = splitTabs(line);
        EXPECT_GE(f.size(), 11u) << line;
        if (f.size() < 11)
            continue;
        ParsedSam rec;
        rec.qname = f[0];
        rec.flag = std::stoi(f[1]);
        rec.rname = f[2];
        rec.pos = std::stoull(f[3]);
        rec.mapq = std::stoi(f[4]);
        rec.cigar = f[5];
        rec.tlen = std::stoll(f[8]);
        for (size_t i = 11; i < f.size(); ++i)
            if (f[i].rfind("AS:i:", 0) == 0)
                rec.score = std::stoi(f[i].substr(5));
        sam.records.push_back(std::move(rec));
    }
    return sam;
}

/** A two-contig workload: FASTA + FASTQ on disk plus the in-memory
 *  concatenated reference / contig table / read list the in-process
 *  Aligner consumes. */
struct Workload
{
    std::string fasta_path;
    std::string fastq_path;
    Sequence reference;
    ContigTable contigs;
    std::vector<std::pair<std::string, Sequence>> reads;
};

Workload
buildWorkload(const std::string &tag, size_t n_reads)
{
    Workload w;
    Rng rng(42);
    ReferenceParams pa;
    pa.length = 30000;
    const Sequence chr_a = generateReference(pa, rng);
    pa.length = 20000;
    const Sequence chr_b = generateReference(pa, rng);

    std::vector<Base> all(chr_a.bases());
    all.insert(all.end(), chr_b.bases().begin(), chr_b.bases().end());
    w.reference = Sequence(std::move(all));
    w.contigs.add("chrA", chr_a.size());
    w.contigs.add("chrB", chr_b.size());

    // Full FASTA names carry descriptions; the CLI must key @SQ on the
    // first token only.
    w.fasta_path = tempPath(tag + ".fa");
    writeFastaFile(w.fasta_path, {{"chrA first contig", chr_a},
                                  {"chrB second contig", chr_b}});

    ReadSimulator sim(w.reference, ReadSimParams::illumina());
    std::ofstream fq(w.fastq_path = tempPath(tag + ".fq"));
    for (size_t i = 0; i < n_reads; ++i) {
        SimulatedRead read = sim.simulate(rng, i);
        fq << '@' << read.name << '\n'
           << read.seq.toString() << '\n'
           << "+\n"
           << std::string(read.seq.size(), 'I') << '\n';
        w.reads.emplace_back(std::move(read.name), std::move(read.seq));
    }
    return w;
}

// ---- .sdx container -----------------------------------------------------

TEST(Sdx, SaveLoadRoundTrip)
{
    Rng rng(7);
    ReferenceParams pa;
    pa.length = 5000;
    Sequence ref = generateReference(pa, rng);
    // Inject Ns: the container must preserve them even though the
    // FM-index itself collapses N to A during construction.
    std::vector<Base> bases = ref.bases();
    bases[100] = kBaseN;
    bases[4999] = kBaseN;
    ref = Sequence(std::move(bases));

    const FmdIndex index(ref);
    const std::string path = tempPath("roundtrip.sdx");
    saveSdx(path, {{"c1", 3000}, {"c2", 2000}}, ref, index);
    EXPECT_TRUE(isSdxFile(path));

    const SdxData data = loadSdx(path);
    EXPECT_EQ(data.version, kSdxVersion);
    ASSERT_EQ(data.contigs.size(), 2u);
    EXPECT_EQ(data.contigs[0].name, "c1");
    EXPECT_EQ(data.contigs[1].length, 2000u);
    ASSERT_EQ(data.reference.size(), ref.size());
    EXPECT_EQ(data.reference.bases(), ref.bases());
    EXPECT_EQ(data.reference[100], kBaseN);
    ASSERT_NE(data.index, nullptr);
    EXPECT_EQ(data.index->referenceLength(), ref.size());
}

/** Byte offsets of the sections of a saved `.sdx` file (layout in
 *  fmindex/sdx.h; the FM-index stream as FmdIndex::save writes it). */
struct SdxSections
{
    size_t header = 8;     ///< version, contig count, contigs, ref length
    size_t reference = 0;  ///< nibble-packed bases
    size_t fm = 0;         ///< FM-index stream: its magic
    size_t fm_arrays = 0;  ///< first array count, right after counts_
    std::vector<size_t> array_counts; ///< each FM array's count field
    std::vector<size_t> array_data;   ///< each FM array's first byte
    size_t footer = 0;     ///< CRC-32 footer
};

SdxSections
sdxSections(const std::string &blob)
{
    const auto u32 = [&](size_t at) {
        uint32_t v = 0;
        std::memcpy(&v, blob.data() + at, sizeof(v));
        return v;
    };
    const auto u64 = [&](size_t at) {
        uint64_t v = 0;
        std::memcpy(&v, blob.data() + at, sizeof(v));
        return v;
    };
    SdxSections s;
    size_t at = 16; // magic, version, contig count
    for (uint32_t i = 0, n = u32(12); i < n; ++i)
        at += 4 + u32(at) + 8;
    const uint64_t ref_len = u64(at);
    s.reference = at + 8;
    s.fm = s.reference + (ref_len + 1) / 2;
    const bool packed = blob[s.fm + 12] == 1; // after magic and version
    // magic, version, layout, ref_len, text_len, primary, counts_[6].
    s.fm_arrays = s.fm + 8 + 4 + 1 + 8 + 8 + 8 + 6 * 8;
    at = s.fm_arrays;
    for (const size_t elem : packed ? std::vector<size_t>{8, 4, 64, 8}
                                    : std::vector<size_t>{8, 4, 1}) {
        s.array_counts.push_back(at);
        s.array_data.push_back(at + 8);
        at += 8 + u64(at) * elem;
    }
    s.footer = blob.size() - 4;
    return s;
}

void
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/** The diagnostic loadSdx gives for `path`, or "" if it loads. */
std::string
loadError(const std::string &path)
{
    try {
        loadSdx(path);
    } catch (const SdxError &e) {
        return e.what();
    }
    return "";
}

TEST(Sdx, SingleFlippedByteRejected)
{
    Rng rng(8);
    ReferenceParams pa;
    pa.length = 2000;
    const Sequence ref = generateReference(pa, rng);
    const FmdIndex index(ref);
    const std::string path = tempPath("corrupt.sdx");
    saveSdx(path, {{"c", 2000}}, ref, index);
    const std::string blob = slurp(path);
    const SdxSections sec = sdxSections(blob);

    // Bytes whose damage the loader parses before it can reach the
    // footer: every byte of the container header, of the FM-index
    // header (magic through counts_) and of each array's count field;
    // a stride through the reference and the arrays; the footer. The
    // magic is covered by the bad-magic case below.
    std::vector<size_t> targets;
    for (size_t at = sec.header; at < sec.reference; ++at)
        targets.push_back(at);
    for (size_t at = sec.fm; at < sec.fm_arrays; ++at)
        targets.push_back(at);
    for (const size_t count : sec.array_counts)
        for (size_t at = count; at < count + 8; ++at)
            targets.push_back(at);
    for (size_t at = sec.reference; at < sec.fm; at += 37)
        targets.push_back(at);
    for (size_t at = sec.array_data.front(); at < sec.footer; at += 37)
        targets.push_back(at);
    for (size_t at = sec.footer; at < blob.size(); ++at)
        targets.push_back(at);

    for (const size_t at : targets) {
        for (const int bit : {0, 7}) {
            std::string bad = blob;
            bad[at] = static_cast<char>(bad[at] ^ (1 << bit));
            writeFile(path, bad);
            const std::string err = loadError(path);
            EXPECT_NE(err.find("checksum mismatch"), std::string::npos)
                << "bit " << bit << " of byte " << at << ": "
                << (err.empty() ? "accepted" : err);
            EXPECT_NE(err.find("rebuild with `seedex index`"),
                      std::string::npos)
                << err;
        }
    }
}

TEST(Sdx, TruncationAndBadMagicRejected)
{
    Rng rng(9);
    ReferenceParams pa;
    pa.length = 2000;
    const Sequence ref = generateReference(pa, rng);
    const FmdIndex index(ref);
    const std::string path = tempPath("trunc.sdx");
    saveSdx(path, {{"c", 2000}}, ref, index);
    const std::string blob = slurp(path);
    const SdxSections sec = sdxSections(blob);

    // Truncated inside the minimum size, at every section boundary, and
    // one byte short of the footer.
    std::vector<size_t> keeps = {0, 4, 8, 12, 16, 20, sec.reference - 8,
                                 sec.reference, sec.fm, sec.fm_arrays,
                                 sec.footer, blob.size() - 1};
    keeps.insert(keeps.end(), sec.array_counts.begin(),
                 sec.array_counts.end());
    keeps.insert(keeps.end(), sec.array_data.begin(),
                 sec.array_data.end());
    for (const size_t keep : keeps) {
        writeFile(path, blob.substr(0, keep));
        const std::string err = loadError(path);
        EXPECT_NE(err.find("rebuild with `seedex index`"),
                  std::string::npos)
            << "kept " << keep << ": " << (err.empty() ? "accepted" : err);
    }
    writeFile(path, blob.substr(0, 20));
    EXPECT_NE(loadError(path).find("truncated index file"),
              std::string::npos);

    // One appended byte shifts the footer.
    writeFile(path, blob + '\0');
    EXPECT_NE(loadError(path).find("checksum mismatch"), std::string::npos);

    writeFile(path, "not an index at all, definitely long enough to read");
    EXPECT_NE(loadError(path).find("bad magic"), std::string::npos);
    EXPECT_FALSE(isSdxFile(path));
}

// ---- CLI round trip -----------------------------------------------------

class CliRoundTrip : public ::testing::Test
{
  protected:
    static const Workload &
    workload()
    {
        static const Workload w = buildWorkload("rt", 300);
        return w;
    }

    static const std::string &
    sdxPath()
    {
        static const std::string path = [] {
            const std::string p = tempPath("rt.sdx");
            EXPECT_EQ(cli({"seedex", "index", workload().fasta_path, "-o",
                           p}),
                      0);
            return p;
        }();
        return path;
    }

    /** CLI align vs in-process Aligner: every record must agree on
     *  flag/rname/pos/cigar/score (sameAlignment plus coordinates). */
    void
    check(EngineKind engine, const std::string &engine_flag, int threads)
    {
        const Workload &w = workload();
        const std::string out = tempPath(
            "rt_" + engine_flag + "_t" + std::to_string(threads) + ".sam");
        std::vector<std::string> args = {"seedex",      "align",
                                         sdxPath(),     w.fastq_path,
                                         "-o",          out,
                                         "--engine=" + engine_flag,
                                         "--threads=" + std::to_string(
                                             threads)};
        std::vector<char *> argv;
        for (std::string &s : args)
            argv.push_back(s.data());
        ASSERT_EQ(runCli(static_cast<int>(argv.size()), argv.data()), 0);

        PipelineConfig config;
        config.engine = engine;
        config.contigs = w.contigs;
        Aligner aligner(w.reference, config);
        const std::vector<SamRecord> expected =
            aligner.alignBatch(w.reads);

        const ParsedSamFile sam = parseSamFile(out);
        ASSERT_EQ(sam.records.size(), expected.size());
        ASSERT_GE(sam.header.size(), 4u); // @HD + 2x @SQ + @PG
        EXPECT_EQ(sam.header[0].rfind("@HD\tVN:1.6", 0), 0u);
        EXPECT_EQ(sam.header[1], "@SQ\tSN:chrA\tLN:30000");
        EXPECT_EQ(sam.header[2], "@SQ\tSN:chrB\tLN:20000");
        EXPECT_EQ(sam.header[3].rfind("@PG\tID:seedex\tPN:seedex", 0), 0u);

        size_t mapped = 0;
        for (size_t i = 0; i < expected.size(); ++i) {
            const ParsedSam &got = sam.records[i];
            const SamRecord &want = expected[i];
            EXPECT_EQ(got.qname, want.qname);
            EXPECT_EQ(got.flag, want.flag) << want.qname;
            EXPECT_EQ(got.rname, want.rname) << want.qname;
            const uint64_t want_pos = want.mapped() ? want.pos + 1 : 0;
            EXPECT_EQ(got.pos, want_pos) << want.qname;
            EXPECT_EQ(got.cigar,
                      want.mapped() ? want.cigar.toString() : "*")
                << want.qname;
            EXPECT_EQ(got.score, want.score) << want.qname;
            EXPECT_EQ(got.mapq, want.mapped() ? want.mapq : 0)
                << want.qname;
            mapped += want.mapped();
        }
        // The workload must actually exercise the mapped path.
        EXPECT_GT(mapped, expected.size() / 2);
    }
};

TEST_F(CliRoundTrip, FullBandSingleThread)
{
    check(EngineKind::FullBand, "fullband", 1);
}

TEST_F(CliRoundTrip, SeedExSingleThread)
{
    check(EngineKind::SeedEx, "seedex", 1);
}

TEST_F(CliRoundTrip, SeedExFourThreads)
{
    check(EngineKind::SeedEx, "seedex", 4);
}

TEST_F(CliRoundTrip, FullBandFourThreads)
{
    // The threaded path runs the SeedEx device pipeline; its optimality
    // guarantee makes the output bit-identical to fullband.
    check(EngineKind::FullBand, "fullband", 4);
}

// ---- CLI failure modes --------------------------------------------------

TEST(CliErrors, CorruptSdxExitsNonZero)
{
    const Workload w = buildWorkload("err", 5);
    const std::string sdx = tempPath("err.sdx");
    ASSERT_EQ(cli({"seedex", "index", w.fasta_path, "-o", sdx}), 0);

    std::fstream f(sdx,
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(64);
    char byte = 0;
    f.seekg(64);
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x01);
    f.seekp(64);
    f.write(&byte, 1);
    f.close();

    const std::string out = tempPath("err.sam");
    EXPECT_EQ(cli({"seedex", "align", sdx, w.fastq_path, "-o", out}), 1);
}

TEST(CliErrors, UsageErrorsExitTwo)
{
    EXPECT_EQ(cli({"seedex"}), 2);
    EXPECT_EQ(cli({"seedex", "frobnicate"}), 2);
    EXPECT_EQ(cli({"seedex", "index", "ref.fa"}), 2); // missing -o
    EXPECT_EQ(cli({"seedex", "align", "a", "b", "--bogus=1"}), 2);
    EXPECT_EQ(cli({"seedex", "align", "a", "b", "--threads=soon"}), 2);
    // Thread and queue shapes are checked before any file is opened.
    for (const char *bad :
         {"--threads=0", "--seeding-threads=0", "--fpga-threads=-1",
          "--batch=0", "--batch=-1", "--queue-cap=0", "--queue-cap=-1",
          "--queue-shards=-1"})
        EXPECT_EQ(cli({"seedex", "align", "a", "b", "--threads=4", bad}), 2)
            << bad;
    // So are the band and the seeding and kernel choices, on either
    // path, and the index options of `seedex index`.
    for (const char *threads : {"--threads=1", "--threads=4"})
        for (const char *bad :
             {"--band=0", "--band=-1", "--kmer=abc", "--kmer=-5",
              "--kmer=99", "--fm-layout=bogus", "--kernel=bogus"})
            EXPECT_EQ(cli({"seedex", "align", "a", "b", threads, bad}), 2)
                << threads << " " << bad;
    for (const char *bad :
         {"--kmer=abc", "--kmer=-5", "--kmer=99", "--fm-layout=bogus"})
        EXPECT_EQ(cli({"seedex", "index", "ref.fa", "-o", "ref.sdx", bad}),
                  2)
            << bad;
    EXPECT_EQ(cli({"seedex", "--version"}), 0);
    EXPECT_EQ(cli({"seedex", "--help"}), 0);
}

TEST(CliErrors, MissingInputsExitOne)
{
    EXPECT_EQ(cli({"seedex", "index", tempPath("nope.fa"), "-o",
                   tempPath("nope.sdx")}),
              1);
    EXPECT_EQ(cli({"seedex", "align", tempPath("nope.fa"),
                   tempPath("nope.fq")}),
              1);
}

TEST(CliErrors, MalformedFastqExitsOneAfterPartialOutput)
{
    const Workload w = buildWorkload("badfq", 3);
    const std::string fq = tempPath("badfq_broken.fq");
    {
        std::ofstream out(fq);
        out << "@ok\nACGTACGTACGTACGTACGTACGT\n+\n"
            << std::string(24, 'I') << '\n'
            << "@broken\nACGT\n"; // truncated record
    }
    const std::string out = tempPath("badfq.sam");
    EXPECT_EQ(cli({"seedex", "align", w.fasta_path, fq, "-o", out}), 1);
    // Multi-threaded: the parse error must end the stream cleanly, not
    // crash a producer thread.
    EXPECT_EQ(cli({"seedex", "align", w.fasta_path, fq, "-o", out,
                   "--threads=4"}),
              1);
}

/** A stream buffer that refuses every write, like a full disk. */
class FullDiskBuf : public std::streambuf
{
  protected:
    int_type overflow(int_type) override { return traits_type::eof(); }
};

TEST(CliErrors, FailedStdoutWriteExitsOne)
{
    const Workload w = buildWorkload("fullout", 200);
    FullDiskBuf full;
    for (const char *threads : {"--threads=1", "--threads=4"}) {
        std::streambuf *saved = std::cout.rdbuf(&full);
        const int rc =
            cli({"seedex", "align", w.fasta_path, w.fastq_path, threads});
        std::cout.rdbuf(saved);
        std::cout.clear();
        EXPECT_EQ(rc, 1) << threads;
    }
}

// ---- flag vs environment precedence ------------------------------------

/** RAII environment override (restores the prior value on exit so a
 *  failing test cannot poison later ones). */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        if (const char *old = std::getenv(name))
            saved_ = old;
        ::setenv(name, value, 1);
    }
    ~ScopedEnv()
    {
        if (saved_.empty())
            ::unsetenv(name_.c_str());
        else
            ::setenv(name_.c_str(), saved_.c_str(), 1);
    }

  private:
    std::string name_;
    std::string saved_;
};

/** Value of `"key":` in a flat JSON document, as raw text up to the
 *  next comma/brace (whitespace-tolerant; enough for report fields). */
std::string
jsonValue(const std::string &doc, const std::string &key)
{
    const std::string needle = "\"" + key + "\"";
    size_t at = doc.find(needle);
    EXPECT_NE(at, std::string::npos) << key;
    if (at == std::string::npos)
        return {};
    at = doc.find(':', at + needle.size());
    EXPECT_NE(at, std::string::npos) << key;
    ++at;
    while (at < doc.size() && (doc[at] == ' ' || doc[at] == '\t'))
        ++at;
    size_t end = at;
    while (end < doc.size() && doc[end] != ',' && doc[end] != '}' &&
           doc[end] != '\n')
        ++end;
    std::string value = doc.substr(at, end - at);
    while (!value.empty() && (value.back() == ' ' || value.back() == '"'))
        value.pop_back();
    if (!value.empty() && value.front() == '"')
        value.erase(value.begin());
    return value;
}

class CliPrecedence : public ::testing::Test
{
  protected:
    /** Run an align with extra flags, return the metrics report text. */
    std::string
    alignReport(const std::string &tag,
                std::initializer_list<std::string> extra)
    {
        static const Workload w = buildWorkload("prec", 40);
        const std::string out = tempPath("prec_" + tag + ".sam");
        const std::string metrics =
            tempPath("prec_" + tag + "_metrics.json");
        std::vector<std::string> args = {"seedex", "align", w.fasta_path,
                                         w.fastq_path, "-o", out,
                                         "--metrics-out=" + metrics};
        args.insert(args.end(), extra.begin(), extra.end());
        std::vector<char *> argv;
        for (std::string &s : args)
            argv.push_back(s.data());
        EXPECT_EQ(runCli(static_cast<int>(argv.size()), argv.data()), 0);
        return slurp(metrics);
    }
};

TEST_F(CliPrecedence, BandFlagBeatsEnv)
{
    ScopedEnv env("SEEDEX_BAND", "7");
    // Env alone reaches the pipeline...
    EXPECT_EQ(jsonValue(alignReport("band_env", {}), "base_band"), "7");
    // ...but an explicit flag always wins.
    EXPECT_EQ(jsonValue(alignReport("band_flag", {"--band=21"}),
                        "base_band"),
              "21");
}

// ---- --kmer with a prebuilt index --------------------------------------

/** SAM text without its @PG line (which records the command line). */
std::string
samWithoutPg(const std::string &path)
{
    std::istringstream in(slurp(path));
    std::string out, line;
    while (std::getline(in, line))
        if (line.rfind("@PG\t", 0) != 0)
            out += line + '\n';
    return out;
}

TEST(CliKmer, SdxHonoursKmerFlag)
{
    // The default run must not inherit a SEEDEX_SEED_KMER setting.
    ScopedEnv env("SEEDEX_SEED_KMER", "");
    const Workload w = buildWorkload("kmer", 200);
    const std::string sdx = tempPath("kmer.sdx");
    ASSERT_EQ(cli({"seedex", "index", w.fasta_path, "-o", sdx}), 0);

    struct Run
    {
        std::string sam;
        uint64_t kmer_hits = 0;
    };
    const auto align = [&](const std::string &tag,
                           std::initializer_list<std::string> extra) {
        const std::string out = tempPath("kmer_" + tag + ".sam");
        const std::string metrics = tempPath("kmer_" + tag + ".json");
        std::vector<std::string> args = {"seedex", "align", sdx,
                                         w.fastq_path, "-o", out,
                                         "--metrics-out=" + metrics};
        args.insert(args.end(), extra.begin(), extra.end());
        std::vector<char *> argv;
        for (std::string &a : args)
            argv.push_back(a.data());
        obs::MetricsRegistry::global().reset();
        EXPECT_EQ(runCli(static_cast<int>(argv.size()), argv.data()), 0);
        return Run{samWithoutPg(out),
                   std::stoull(jsonValue(slurp(metrics),
                                         "seed.kmer_hits"))};
    };
    const Run with_table = align("default", {});
    const Run without = align("off", {"--kmer=0"});
    EXPECT_GT(with_table.kmer_hits, 0u);
    EXPECT_EQ(without.kmer_hits, 0u);
    EXPECT_EQ(without.sam, with_table.sam);
}

TEST(CliReport, LoadTimedInReportAndTrace)
{
    const Workload w = buildWorkload("load", 20);
    const std::string sdx = tempPath("load.sdx");
    ASSERT_EQ(cli({"seedex", "index", w.fasta_path, "-o", sdx}), 0);
    // A .sdx load and a FASTA parse + index build are both timed.
    for (const std::string &ref : {sdx, w.fasta_path}) {
        const std::string metrics = tempPath("load_metrics.json");
        const std::string trace = tempPath("load_trace.json");
        ASSERT_EQ(cli({"seedex", "align", ref, w.fastq_path, "-o",
                       tempPath("load.sam"), "--metrics-out=" + metrics,
                       "--trace-out=" + trace}),
                  0);
        EXPECT_GT(std::stod(jsonValue(slurp(metrics), "load_seconds")), 0.0)
            << ref;
        EXPECT_NE(slurp(trace).find("\"index.load\""), std::string::npos)
            << ref;
    }
}

// ---- unmapped-record SAM fields ----------------------------------------

TEST(SamSpec, UnmappedRecordFields)
{
    const SamRecord rec =
        unmappedRecord("lost", Sequence::fromString("ACGTACGT"));
    const std::vector<std::string> f = splitTabs(rec.render());
    ASSERT_GE(f.size(), 11u);
    EXPECT_EQ(f[1], "4");  // FLAG: unmapped
    EXPECT_EQ(f[2], "*");  // RNAME
    EXPECT_EQ(f[3], "0");  // POS: 0, not 1
    EXPECT_EQ(f[4], "0");  // MAPQ
    EXPECT_EQ(f[5], "*");  // CIGAR
    EXPECT_EQ(f[6], "*");  // RNEXT
    EXPECT_EQ(f[7], "0");  // PNEXT
    EXPECT_EQ(f[8], "0");  // TLEN
}

// ---- streaming readers --------------------------------------------------

TEST(FastxStream, FastqCrlfAndBlankSeparators)
{
    std::istringstream in("@r1\r\nACGT\r\n+\r\nIIII\r\n"
                          "\n\n"
                          "@r2 with description\nTTGG\n+r2\nJJJJ\n");
    FastqReader reader(in);
    FastqRecord rec;
    ASSERT_TRUE(reader.next(rec));
    EXPECT_EQ(rec.name, "r1");
    EXPECT_EQ(rec.seq.toString(), "ACGT");
    EXPECT_EQ(rec.qual, "IIII");
    ASSERT_TRUE(reader.next(rec));
    EXPECT_EQ(rec.name, "r2 with description");
    EXPECT_EQ(rec.seq.toString(), "TTGG");
    EXPECT_FALSE(reader.next(rec));
    EXPECT_EQ(reader.recordsRead(), 2u);
}

TEST(FastxStream, FastqBlankLineInsideRecordDiagnosed)
{
    std::istringstream in("@r1\nACGT\n+\nIIII\n@r2\nACGT\n\nIIII\n");
    FastqReader reader(in, "reads.fq");
    FastqRecord rec;
    ASSERT_TRUE(reader.next(rec));
    try {
        reader.next(rec);
        FAIL() << "blank line inside record 2 was accepted";
    } catch (const std::runtime_error &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("reads.fq"), std::string::npos) << msg;
        EXPECT_NE(msg.find("FASTQ record 2"), std::string::npos) << msg;
        EXPECT_NE(msg.find("blank line"), std::string::npos) << msg;
    }
}

TEST(FastxStream, FastqTruncatedAndLengthMismatchDiagnosed)
{
    {
        std::istringstream in("@r1\nACGT\n+\n");
        FastqReader reader(in);
        FastqRecord rec;
        EXPECT_THROW(reader.next(rec), std::runtime_error);
    }
    {
        std::istringstream in("@r1\nACGT\n+\nIII\n");
        FastqReader reader(in);
        FastqRecord rec;
        try {
            reader.next(rec);
            FAIL() << "quality length mismatch accepted";
        } catch (const std::runtime_error &e) {
            EXPECT_NE(std::string(e.what()).find("quality length"),
                      std::string::npos);
        }
    }
}

TEST(FastxStream, FastaRejectsEmptyAndDuplicateNames)
{
    {
        std::istringstream in(">\nACGT\n");
        FastaReader reader(in, "ref.fa");
        FastaRecord rec;
        try {
            reader.next(rec);
            FAIL() << "empty contig name accepted";
        } catch (const std::runtime_error &e) {
            const std::string msg = e.what();
            EXPECT_NE(msg.find("FASTA record 1"), std::string::npos)
                << msg;
            EXPECT_NE(msg.find("empty contig name"), std::string::npos)
                << msg;
        }
    }
    {
        std::istringstream in(">chr1\nACGT\n>chr1\nTTTT\n");
        FastaReader reader(in, "ref.fa");
        FastaRecord rec;
        ASSERT_TRUE(reader.next(rec));
        try {
            reader.next(rec);
            FAIL() << "duplicate contig name accepted";
        } catch (const std::runtime_error &e) {
            const std::string msg = e.what();
            EXPECT_NE(msg.find("FASTA record 2"), std::string::npos)
                << msg;
            EXPECT_NE(msg.find("duplicate contig name"),
                      std::string::npos)
                << msg;
        }
    }
}

TEST(FastxStream, OffsetsStay64BitPastFourGiB)
{
    // A reader resumed at byte 5 GiB: every offset it reports must keep
    // the high bits (the arithmetic is uint64 throughout; a 32-bit
    // truncation would wrap these to small numbers).
    const uint64_t five_gib = 5ull * 1024 * 1024 * 1024;
    const std::string payload = "@r1\nACGT\n+\nIIII\n@r2\nGGCC\n+\nJJJJ\n";
    std::istringstream in(payload);
    FastqReader reader(in, "big.fq", five_gib);
    FastqRecord rec;
    ASSERT_TRUE(reader.next(rec));
    ASSERT_TRUE(reader.next(rec));
    EXPECT_EQ(rec.name, "r2");
    EXPECT_EQ(reader.byteOffset(), five_gib + payload.size());
    EXPECT_GT(reader.byteOffset(), uint64_t{1} << 32);

    std::istringstream in2(payload);
    LineScanner scanner(in2, "big.fq", five_gib);
    std::string line;
    ASSERT_TRUE(scanner.next(line));
    EXPECT_EQ(scanner.lineOffset(), five_gib);
    ASSERT_TRUE(scanner.next(line));
    EXPECT_EQ(scanner.lineOffset(), five_gib + 4);
    EXPECT_EQ(scanner.lineNumber(), 2u);
}

} // namespace
} // namespace seedex
