#ifndef SEEDEX_ALIGNER_PIPELINE_H
#define SEEDEX_ALIGNER_PIPELINE_H

#include <memory>
#include <span>
#include <vector>

#include "aligner/chaining.h"
#include "aligner/extension.h"
#include "aligner/sam.h"
#include "aligner/seeding.h"
#include "fmindex/fmd_index.h"
#include "hw/throughput_model.h"
#include "util/stopwatch.h"

namespace seedex {

/** Which seed-extension engine the pipeline runs. */
enum class EngineKind
{
    FullBand, ///< BWA-MEM/BWA-MEM2 software baseline
    Banded,   ///< fixed narrow band, NO guarantee (Fig. 13 baseline)
    SeedEx,   ///< speculative narrow band + checks + rerun (this paper)
};

/** End-to-end aligner configuration. */
struct PipelineConfig
{
    SeedingParams seeding;
    ChainingParams chaining;
    ExtensionParams extension;
    EngineKind engine = EngineKind::FullBand;
    /** Band for Banded/SeedEx engines. */
    int band = 41;
    SeedExConfig seedex;
    /** Contig dictionary for SAM emission (RNAME/POS resolution); the
     *  empty default is the legacy single-contig "ref" mode. */
    ContigTable contigs;
};

/** Wall-clock seconds per software pipeline stage (Fig. 17 inputs). */
struct StageTimes
{
    double seeding = 0;   ///< SMEM generation + seed lookup + chaining
    double extension = 0; ///< the banded-SW kernel (what SeedEx offloads)
    double other = 0;     ///< traceback, SAM output, bookkeeping

    double total() const { return seeding + extension + other; }
};

/** Counters and timings accumulated over a batch. */
struct PipelineStats
{
    StageTimes times;
    uint64_t reads = 0;
    uint64_t unmapped = 0;
    uint64_t extensions = 0;
    /** SeedEx filter verdicts (only for EngineKind::SeedEx). */
    FilterStats filter;
};

/**
 * The SAM record of one read's best chain: the highest-scoring slot
 * (the first on ties), with the best score among the others as the
 * runner-up for MAPQ. `chosen` receives the winning slot's index.
 */
SamRecord bestChainRecord(const std::string &name, const Sequence &read,
                          std::span<const ChainSlot> slots,
                          const Sequence &reference,
                          const PipelineConfig &config, size_t &chosen);

/**
 * The single-end mini-aligner (the BWA-MEM stand-in of DESIGN.md §1):
 * FMD-index seeding, chaining, two-sided banded extension through a
 * pluggable engine, host traceback, SAM records. Its measured stage
 * times drive the Fig. 17 model; its output equivalence across engines
 * reproduces Fig. 13 at application level.
 *
 * The aligner borrows `reference`: the caller keeps it alive, unmoved
 * and unmodified for the aligner's whole lifetime (temporaries are
 * rejected at compile time).
 */
class Aligner
{
  public:
    Aligner(const Sequence &reference, PipelineConfig config);

    /** Construct around a prebuilt FM-index (e.g. loaded from a `.sdx`
     *  cache); `index` must have been built over `reference` and may be
     *  null, in which case the index is built here. */
    Aligner(const Sequence &reference, PipelineConfig config,
            std::unique_ptr<FmdIndex> index);

    Aligner(Sequence &&reference, PipelineConfig config) = delete;
    Aligner(Sequence &&reference, PipelineConfig config,
            std::unique_ptr<FmdIndex> index) = delete;

    /** Align one read; stats are accumulated if non-null. Extension jobs
     *  are appended to `capture` (if non-null) in submission order, each
     *  chain's left flank before its right, for the accelerator device
     *  model. */
    SamRecord alignRead(const std::string &name, const Sequence &read,
                        PipelineStats *stats = nullptr,
                        std::vector<ExtensionJob> *capture = nullptr);

    /** Align a batch of (name, read) pairs. Seeding runs in lockstep
     *  batches of seedBatchSize() reads (identical output to alignRead
     *  per read, but with cross-read prefetching on the FM-index). */
    std::vector<SamRecord>
    alignBatch(const std::vector<std::pair<std::string, Sequence>> &reads,
               PipelineStats *stats = nullptr,
               std::vector<ExtensionJob> *capture = nullptr);

    const FmdIndex &index() const { return *index_; }
    const Sequence &reference() const { return ref_; }
    ExtensionEngine &engine() { return *engine_; }
    const PipelineConfig &config() const { return config_; }

  private:
    /** Chain, extend, and emit one read whose seeds were already
     *  collected (`seed_seconds` is charged to the seeding stage). */
    SamRecord alignSeeded(const std::string &name, const Sequence &read,
                          const std::vector<Seed> &seeds,
                          double seed_seconds, PipelineStats *stats,
                          std::vector<ExtensionJob> *capture);

    const Sequence &ref_;
    PipelineConfig config_;
    std::unique_ptr<FmdIndex> index_;
    std::unique_ptr<ExtensionEngine> engine_;
};

} // namespace seedex

#endif // SEEDEX_ALIGNER_PIPELINE_H
