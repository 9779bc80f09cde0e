#ifndef SEEDEX_ALIGNER_EXTENSION_H
#define SEEDEX_ALIGNER_EXTENSION_H

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "aligner/chaining.h"
#include "align/extend.h"
#include "hw/throughput_model.h"
#include "seedex/filter.h"

namespace seedex {

/**
 * Pluggable seed-extension engine: the pipeline stage SeedEx accelerates.
 * Implementations must be drop-in equivalent *interfaces*; only the
 * guaranteed engines (full band, SeedEx) promise full-band-optimal
 * results.
 */
class ExtensionEngine
{
  public:
    virtual ~ExtensionEngine() = default;

    /**
     * Perform one semi-global extension of `job.query` against
     * `job.target` with initial score `job.h0`.
     */
    virtual ExtendResult extend(const ExtensionJob &job) = 0;

    virtual std::string name() const = 0;

    /** Extensions executed (for throughput accounting). */
    uint64_t calls() const { return calls_; }

  protected:
    uint64_t calls_ = 0;
};

/** Software full-band engine: BWA-MEM's per-extension estimated band. */
class FullBandEngine : public ExtensionEngine
{
  public:
    explicit FullBandEngine(Scoring scoring = Scoring::bwaDefault(),
                            int end_bonus = 5)
        : scoring_(scoring), end_bonus_(end_bonus)
    {}

    ExtendResult extend(const ExtensionJob &job) override;
    std::string name() const override { return "full-band"; }

  private:
    Scoring scoring_;
    int end_bonus_;
};

/** Fixed narrow band with NO optimality guarantee (the Fig. 13 "BSW"
 *  baseline whose output diverges at small bands). */
class BandedEngine : public ExtensionEngine
{
  public:
    explicit BandedEngine(int band,
                          Scoring scoring = Scoring::bwaDefault(),
                          int end_bonus = 5, int zdrop = -1)
        : band_(band), scoring_(scoring), end_bonus_(end_bonus),
          zdrop_(zdrop)
    {}

    ExtendResult extend(const ExtensionJob &job) override;
    std::string name() const override
    {
        return "banded-w" + std::to_string(band_);
    }

  private:
    int band_;
    Scoring scoring_;
    int end_bonus_;
    int zdrop_;
};

/** The SeedEx engine: speculative narrow band + optimality checks +
 *  host rerun. Guaranteed band-invariant output. */
class SeedExEngine : public ExtensionEngine
{
  public:
    explicit SeedExEngine(SeedExConfig config) : filter_(config) {}

    ExtendResult extend(const ExtensionJob &job) override;
    std::string name() const override
    {
        return "seedex-w" + std::to_string(filter_.config().band);
    }

    const FilterStats &stats() const { return stats_; }

  private:
    SeedExFilter filter_;
    FilterStats stats_;
};

/** One extended chain: a candidate alignment of the oriented read. */
struct ChainAlignment
{
    int score = 0;
    bool reverse = false;
    /** Aligned spans: query (oriented-read coords) and reference. */
    int qbeg = 0, qend = 0;
    uint64_t rbeg = 0, rend = 0;
    /** Anchor seed score (h0 fed to the left extension). */
    int seed_score = 0;
    /** Max diagonal offset either extension observed; 0 means the whole
     *  alignment is gap-free and traceback is trivial. */
    int max_off = 0;
};

/** Extension-stage configuration. */
struct ExtensionParams
{
    Scoring scoring = Scoring::bwaDefault();
    /** Reference window slack fetched beyond the query remainder (BWA's
     *  rmax band margin). */
    int window_slack = 100;
    /** End bonus b: to-end extension wins when
     *  gscore >= local max - b (BWA's pen_clip logic, default 5). */
    int end_bonus = 5;
};

/** One chain handed to the extension driver. */
struct ChainSlot
{
    const Chain *chain = nullptr;
    /** The read in the chain's orientation. */
    const Sequence *read = nullptr;
    /** The driver's output. */
    ChainAlignment aln;
};

/** The flank jobs of one driver pass and their results. Recycled across
 *  calls: packaging overwrites the kept jobs' sequences in place. */
struct ExtensionBatch
{
    std::vector<ExtensionJob> jobs;
    /** Slot each job came from, parallel to `jobs`. */
    std::vector<size_t> slot_of;
    /** Written by the submit step, parallel to `jobs`. */
    std::vector<ExtendResult> results;
};

/** The driver's backend: extend every job of `batch.jobs` into
 *  `batch.results` (empty on entry). */
using ExtensionSubmit = std::function<void(ExtensionBatch &batch)>;

/** Submit step that runs each job through `engine`, in job order. */
void submitToEngine(ExtensionEngine &engine, ExtensionBatch &batch);

/**
 * The extension driver: BWA-MEM's two-sided extension with h0
 * propagation (§V-B) for every slot. All left flanks (read prefix vs the
 * reference window before the anchor, both reversed, h0 = the anchor's
 * seed score) go to `submit` as one batch; each result's clip-vs-to-end
 * decision sets its slot's left end and the h0 of its right flank
 * ("the initial score must be updated with the left extension score").
 * Then the same happens for the right flanks. Chains whose anchor
 * reaches a read end submit no job for that side.
 */
void extendChains(std::span<ChainSlot> slots, const Sequence &reference,
                  const ExtensionParams &params, ExtensionBatch &batch,
                  const ExtensionSubmit &submit);

/** The driver's one-slot case, with `engine` as the submit step. */
ChainAlignment extendChain(const Chain &chain, const Sequence &oriented_read,
                           const Sequence &reference,
                           ExtensionEngine &engine,
                           const ExtensionParams &params);

} // namespace seedex

#endif // SEEDEX_ALIGNER_EXTENSION_H
