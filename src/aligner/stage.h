#ifndef SEEDEX_ALIGNER_STAGE_H
#define SEEDEX_ALIGNER_STAGE_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "aligner/batch_ring.h"
#include "aligner/paired.h"
#include "aligner/pipeline.h"
#include "obs/ledger.h"

namespace seedex {

/**
 * The alignment stage: the one path from a slab of reads to SAM records
 * (seed → chain → extend → pick → pair → ledger), in three steps over a
 * SeededBatch. The threaded pipeline runs step 1 on its seeding threads
 * and steps 2 and 3 on its FPGA threads (Fig. 12, §V-B); alignInline runs
 * all three on the calling thread. Either way a slab's records, ledger
 * records and counters are the same.
 */

/** Reads per slab unless the caller chooses (`--batch`). */
inline constexpr size_t kDefaultBatchSize = 64;

/** Receives finished records in strictly increasing read_idx order. */
using SamSink = std::function<void(size_t read_idx, SamRecord &&rec)>;

/**
 * Pull-style read supplier for both drivers. `out` has at least `max`
 * elements on entry; the supplier overwrites out[0..n) (assigning into
 * the recycled strings/sequences, so their capacity is reused) and
 * returns n. Returning 0 ends the stream. The threaded driver calls it
 * under an internal mutex, so implementations need no locking of their
 * own, and successive calls see strictly increasing file positions. In
 * paired mode every pull must return whole pairs.
 */
using ReadSource = std::function<size_t(
    std::vector<std::pair<std::string, Sequence>> &out, size_t max)>;

/** A source that copies `reads` out in order (`reads` must outlive
 *  it). */
ReadSource
copyingSource(const std::vector<std::pair<std::string, Sequence>> &reads);

/** What the stage counted over a run, across every thread running it
 *  (pairs are counted by finalizePair's seedex.paired.* instruments). */
struct StageTotals
{
    /** Primary (non-rescue) extension jobs submitted. */
    std::atomic<uint64_t> extensions{0};
    /** Full-band reruns among them, as the engine counts them
     *  (ExtensionEngine::reruns). */
    std::atomic<uint64_t> reruns{0};
};

/** The stage's shared state: read-only inputs and the run's totals. */
struct AlignStage
{
    AlignStage(const Sequence &reference, const FmdIndex &index,
               const PipelineConfig &pipeline)
        : reference(reference), index(index), pipeline(pipeline)
    {}

    const Sequence &reference;
    const FmdIndex &index;
    const PipelineConfig &pipeline;
    mutable StageTotals totals;
};

/**
 * One thread's state for the stage: seeding scratch, the slab's chain
 * table and records, and the run's extension engine (makeEngine), which
 * extends every flank (as whole flank sides, through its batch entry)
 * and does mate rescue.
 */
struct StageCtx
{
    explicit StageCtx(const PipelineConfig &pipeline);

    std::vector<const Sequence *> queries;
    std::vector<std::vector<Seed>> seeds;
    /** The slab's chain table and, parallel to it, each slot's item. */
    std::vector<ChainSlot> slots;
    std::vector<size_t> slot_item;
    ExtensionBatch batch;
    /** The slab's SAM records: picked in step 2, paired in step 3. */
    std::vector<SamRecord> records;
    /** The slab's ledger records, from step 2 to their publish in step
     *  3, and each item's record (-1: not sampled). */
    bool ledger_on = false;
    std::vector<obs::ReadRecord> ledger_recs;
    std::vector<int> rec_of_item;
    /** Each submitted job's ledger record (null: not recorded). */
    std::vector<obs::ReadRecord *> job_recs;
    std::unique_ptr<ExtensionEngine> engine;
    const SeedExEngine *seedex;
    /** CPU spent inside the submit step. */
    double submit_cpu = 0;
    /** When set, every step adds its counts and times here. */
    PipelineStats *stats = nullptr;
    /** When set, every submitted job is appended in submission order: a
     *  slab's left flanks, then its right flanks. */
    std::vector<ExtensionJob> *capture = nullptr;
};

/** Swap `n` pulled reads into `slab` (both sides keep their storage);
 *  item i gets the ledger index `first_index + i`. */
void loadSlab(SeededBatch &slab,
              std::vector<std::pair<std::string, Sequence>> &pulled,
              size_t n, uint64_t first_index);

/** Step 1: lockstep seeding in chunks of seedBatchSize() reads (the
 *  scalar driver per read when that is 1), chaining, and the reverse
 *  complement when a chain needs it, into slab storage. */
void seedSlab(const AlignStage &stage, StageCtx &ctx, SeededBatch &slab);

/** Step 2: the slab's ledger records, its chain table extended through
 *  the run's engine, and the best chain per read into ctx.records. */
void extendSlab(const AlignStage &stage, StageCtx &ctx,
                const SeededBatch &slab);

/** Step 3: finalizePair for each pair (when `pair` is set; mates sit at
 *  items 2j and 2j+1), then the ledger publish. */
void finishSlab(StageCtx &ctx, const SeededBatch &slab,
                const PairContext *pair);

/**
 * The inline driver: pulls `batch_size` reads per slab from `source`
 * (rounded up to even when `pair` is set), runs the three steps on the
 * calling thread and hands the records to `sink` in order, numbered from
 * 0. Ledger indices start at `first_read_index`. Returns the number of
 * reads aligned.
 */
size_t alignInline(const AlignStage &stage, StageCtx &ctx,
                   const ReadSource &source, size_t batch_size,
                   const PairContext *pair, const SamSink &sink,
                   uint64_t first_read_index = 0);

} // namespace seedex

#endif // SEEDEX_ALIGNER_STAGE_H
