/**
 * @file
 * Kernel-level benchmark for the vectorized banded-extension engine:
 * scalar vs compiled vector tiers (SSE4.1 / AVX2) across a band ×
 * read-length sweep, reporting ns/extension and GCells/s per cell of the
 * sweep, plus the banded-global (Gotoh) score pass.
 *
 * Emits a machine-readable BENCH_kernel.json (override with
 * --out=FILE); --quick shrinks the sweep; --metrics-out=FILE exports the
 * run report with the align.kernel.* instruments populated.
 */
#include <chrono>
#include <cstdint>

#include "align/kernel.h"
#include "bench_common.h"

using namespace seedex;
using namespace seedex::bench;

namespace {

/** One synthetic extension job: a read flank against its true reference
 *  window (2% SNPs, occasional short indels -- Illumina-like). */
struct Pair
{
    Sequence query;
    Sequence target;
    int h0 = 0;
};

std::vector<Pair>
makePairs(size_t count, int qlen, uint64_t seed)
{
    Rng rng(seed);
    std::vector<Pair> pairs;
    pairs.reserve(count);
    for (size_t p = 0; p < count; ++p) {
        Pair pair;
        pair.target.reserve(static_cast<size_t>(qlen) + 48);
        for (int i = 0; i < qlen + 40; ++i)
            pair.target.push_back(static_cast<Base>(rng.below(4)));
        pair.query.reserve(static_cast<size_t>(qlen));
        size_t t = 0;
        while (static_cast<int>(pair.query.size()) < qlen) {
            const uint64_t roll = rng.below(100);
            const Base ref = pair.target[t % pair.target.size()];
            if (roll < 2) { // SNP
                pair.query.push_back(
                    static_cast<Base>((ref + 1 + rng.below(3)) % 4));
                ++t;
            } else if (roll < 3) { // 1-2 bp insertion in the read
                pair.query.push_back(static_cast<Base>(rng.below(4)));
            } else if (roll < 4) { // 1-2 bp deletion from the read
                t += 1 + rng.below(2);
            } else {
                pair.query.push_back(ref);
                ++t;
            }
        }
        // Seed scores in BWA are anchor_len * match; mid-size anchors.
        pair.h0 = 20 + static_cast<int>(rng.below(80));
        pairs.push_back(std::move(pair));
    }
    return pairs;
}

struct CellResult
{
    int band = 0;
    int qlen = 0;
    KernelIsa isa = KernelIsa::Scalar;
    double ns_per_extension = 0;
    double gcells_per_s = 0;
    uint64_t cells = 0;
    int score_checksum = 0;
};

CellResult
timeExtension(const std::vector<Pair> &pairs, int band, int qlen,
              KernelIsa isa, int reps)
{
    ExtendConfig cfg;
    cfg.band = band;
    CellResult res;
    res.band = band;
    res.qlen = qlen;
    res.isa = isa;
    uint64_t extensions = 0;
    // Warm the workspace + code before the timed region.
    bandedExtend(pairs[0].query, pairs[0].target, pairs[0].h0, cfg, isa);
    const auto t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < reps; ++r) {
        for (const Pair &p : pairs) {
            const ExtendResult out =
                bandedExtend(p.query, p.target, p.h0, cfg, isa);
            res.score_checksum += out.score;
            res.cells += kern::lastCellCount();
            ++extensions;
        }
    }
    const auto t1 = std::chrono::steady_clock::now();
    const double seconds =
        std::chrono::duration<double>(t1 - t0).count();
    res.ns_per_extension =
        seconds * 1e9 / static_cast<double>(extensions);
    res.gcells_per_s = static_cast<double>(res.cells) / seconds / 1e9;
    return res;
}

CellResult
timeGotoh(const std::vector<Pair> &pairs, int band, int qlen,
          KernelIsa isa, int reps)
{
    const Scoring scoring = Scoring::bwaDefault();
    CellResult res;
    res.band = band;
    res.qlen = qlen;
    res.isa = isa;
    uint64_t fills = 0;
    // The banded-global pass needs the corner inside the band.
    gotohBandedFill(pairs[0].query, pairs[0].query, scoring, band, isa);
    const auto t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < reps; ++r) {
        for (const Pair &p : pairs) {
            // Global alignment query-vs-query-window (equal lengths keep
            // every diagonal admissible for small bands).
            const Sequence t = p.target.slice(0, p.query.size());
            const GotohFill out =
                gotohBandedFill(p.query, t, scoring, band, isa);
            res.score_checksum += out.score;
            ++fills;
        }
    }
    const auto t1 = std::chrono::steady_clock::now();
    const double seconds =
        std::chrono::duration<double>(t1 - t0).count();
    res.cells = fills * static_cast<uint64_t>(qlen) *
        static_cast<uint64_t>(2 * band + 1);
    res.ns_per_extension = seconds * 1e9 / static_cast<double>(fills);
    res.gcells_per_s = static_cast<double>(res.cells) / seconds / 1e9;
    return res;
}

void
appendCell(obs::JsonWriter &w, const CellResult &c, double speedup)
{
    w.beginObject();
    w.kv("band", c.band);
    w.kv("qlen", c.qlen);
    w.kv("isa", std::string(kernelIsaName(c.isa)));
    w.kv("ns_per_extension", c.ns_per_extension);
    w.kv("gcells_per_s", c.gcells_per_s);
    w.kv("cells", c.cells);
    w.kv("speedup_vs_scalar", speedup);
    w.endObject();
}

} // namespace

int
main(int argc, char **argv)
{
    banner("Kernel: vectorized banded extension",
           "SIMD tiers are bit-exact with scalar and >=3x faster at "
           "101 bp / band 41");

    const bool quick = quickMode(argc, argv);
    std::string out_path = flagValue(argc, argv, "--out");
    if (out_path.empty())
        out_path = "BENCH_kernel.json";
    const std::string metrics_path = metricsOutPath(argc, argv);

    const std::vector<int> bands =
        quick ? std::vector<int>{11, 41} : std::vector<int>{11, 21, 41, 75};
    const std::vector<int> qlens =
        quick ? std::vector<int>{101} : std::vector<int>{101, 151, 251};
    const size_t n_pairs = quick ? 64 : 256;
    const int reps = quick ? 4 : 16;

    const std::vector<KernelIsa> &isas = availableKernelIsas();

    TextTable table;
    table.setHeader({"qlen", "band", "isa", "ns/ext", "GCells/s",
                     "speedup"});
    obs::JsonWriter json;
    json.beginObject();
    beginSweepDoc(json, "bench_kernel");
    json.kv("dispatch", std::string(kernelIsaName(kernelDispatch())));
    json.key("extension").beginArray();

    double speedup_101_41 = 0; // widest tier at the headline cell

    for (int qlen : qlens) {
        const std::vector<Pair> pairs =
            makePairs(n_pairs, qlen, 0x5eed0000ULL + qlen);
        for (int band : bands) {
            double scalar_ns = 0;
            for (KernelIsa isa : isas) {
                const CellResult c =
                    timeExtension(pairs, band, qlen, isa, reps);
                if (isa == KernelIsa::Scalar)
                    scalar_ns = c.ns_per_extension;
                const double speedup = c.ns_per_extension > 0
                    ? scalar_ns / c.ns_per_extension
                    : 0;
                if (qlen == 101 && band == 41 && isa == isas.back())
                    speedup_101_41 = speedup;
                appendCell(json, c, speedup);
                table.addRow({std::to_string(qlen), std::to_string(band),
                              kernelIsaName(isa),
                              strprintf("%.1f", c.ns_per_extension),
                              strprintf("%.3f", c.gcells_per_s),
                              strprintf("%.2f", speedup)});
            }
        }
    }
    json.endArray();

    // Banded-global (Gotoh) score pass at the headline geometry.
    json.key("gotoh").beginArray();
    {
        const int qlen = quick ? 101 : 151;
        const int band = 15;
        const std::vector<Pair> pairs =
            makePairs(quick ? 32 : 128, qlen, 0x90709070ULL);
        double scalar_ns = 0;
        for (KernelIsa isa : isas) {
            const CellResult c = timeGotoh(pairs, band, qlen, isa, reps);
            if (isa == KernelIsa::Scalar)
                scalar_ns = c.ns_per_extension;
            const double speedup = c.ns_per_extension > 0
                ? scalar_ns / c.ns_per_extension
                : 0;
            appendCell(json, c, speedup);
            table.addRow({std::string("G") + std::to_string(qlen),
                          std::to_string(band), kernelIsaName(isa),
                          strprintf("%.1f", c.ns_per_extension),
                          strprintf("%.3f", c.gcells_per_s),
                          strprintf("%.2f", speedup)});
        }
    }
    json.endArray();
    json.kv("speedup_101bp_band41", speedup_101_41);
    json.endObject();

    std::cout << table.render();
    std::cout << "\nheadline speedup (101 bp, band 41, "
              << kernelIsaName(isas.back())
              << "): " << speedup_101_41 << "x\n";

    if (!obs::writeTextFile(out_path, json.str()))
        std::cerr << "[bench] FAILED to write " << out_path << "\n";
    else
        std::cout << "[bench] sweep written to " << out_path << "\n";

    // Run a slice through the instrumented dispatcher so the exported
    // report carries the align.kernel.* instruments.
    {
        const std::vector<Pair> pairs = makePairs(32, 101, 0xabc123ULL);
        ExtendConfig cfg;
        cfg.band = 41;
        for (const Pair &p : pairs)
            kswExtend(p.query, p.target, p.h0, cfg);
    }
    writeRunReport(metrics_path, "bench_kernel");
    return 0;
}
