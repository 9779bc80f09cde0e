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

namespace seedex {

/** Which seed-extension engine the pipeline runs. */
enum class EngineKind
{
    FullBand, ///< BWA-MEM/BWA-MEM2 software baseline
    Banded,   ///< fixed narrow band, NO guarantee (Fig. 13 baseline)
    SeedEx,   ///< speculative narrow band + checks + rerun (this paper)
    /** SeedEx through the device timing model (Fig. 7/8): a
     *  DeviceEngine, whose batch entry pushes each flank side of a slab
     *  through SeedExAccelerator::processBatch (modeled cycles, the
     *  speculative-exception reruns and the device.* counters). Single
     *  jobs, such as mate rescue's, run the SeedEx engine. */
    Device,
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

/** The extension engine `config` selects. */
std::unique_ptr<ExtensionEngine> makeEngine(const PipelineConfig &config);

/**
 * The SAM record of one read's best chain: the highest-scoring slot
 * (the first on ties), with the best score among the others as the
 * runner-up for MAPQ. `chosen` receives the winning slot's index.
 */
SamRecord bestChainRecord(const std::string &name, const Sequence &read,
                          std::span<const ChainSlot> slots,
                          const Sequence &reference,
                          const PipelineConfig &config, size_t &chosen);

struct AlignStage;
struct StageCtx;

/**
 * The single-end mini-aligner (the BWA-MEM stand-in of DESIGN.md §1):
 * FMD-index seeding, chaining, two-sided banded extension through a
 * pluggable engine, host traceback, SAM records. A thin wrapper over the
 * alignment stage's inline driver (stage.h), the same path the CLI runs
 * at every thread count. Its measured stage times drive the Fig. 17
 * model; its output equivalence across engines reproduces Fig. 13 at
 * application level.
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

    ~Aligner();

    /** Align one read; stats are accumulated if non-null. Extension jobs
     *  are appended to `capture` (if non-null) in submission order: every
     *  chain's left flank, then every chain's right flank. */
    SamRecord alignRead(const std::string &name, const Sequence &read,
                        PipelineStats *stats = nullptr,
                        std::vector<ExtensionJob> *capture = nullptr);

    /** Align a batch of (name, read) pairs in slabs of kDefaultBatchSize
     *  reads; `capture` receives each slab's left flanks, then its right
     *  flanks. Provenance-ledger records number the reads on from the
     *  previous call on this aligner. */
    std::vector<SamRecord>
    alignBatch(const std::vector<std::pair<std::string, Sequence>> &reads,
               PipelineStats *stats = nullptr,
               std::vector<ExtensionJob> *capture = nullptr);

    const FmdIndex &index() const { return *index_; }
    const Sequence &reference() const { return ref_; }
    ExtensionEngine &engine();
    const PipelineConfig &config() const { return config_; }

  private:
    const Sequence &ref_;
    PipelineConfig config_;
    std::unique_ptr<FmdIndex> index_;
    std::unique_ptr<AlignStage> stage_;
    std::unique_ptr<StageCtx> ctx_;
    /** Ledger index of the next read this aligner aligns. */
    uint64_t next_read_index_ = 0;
};

} // namespace seedex

#endif // SEEDEX_ALIGNER_PIPELINE_H
