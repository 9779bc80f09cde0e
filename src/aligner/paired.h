#ifndef SEEDEX_ALIGNER_PAIRED_H
#define SEEDEX_ALIGNER_PAIRED_H

#include <cstdint>
#include <utility>
#include <vector>

#include "aligner/pipeline.h"

namespace seedex {

/** Additional SAM flag bits used by the paired-end pipeline. */
inline constexpr int kSamFlagPaired = 0x1;
inline constexpr int kSamFlagProperPair = 0x2;
inline constexpr int kSamFlagMateUnmapped = 0x8;
inline constexpr int kSamFlagMateReverse = 0x20;
inline constexpr int kSamFlagFirstInPair = 0x40;
inline constexpr int kSamFlagSecondInPair = 0x80;

/** Insert-size model for proper-pair scoring and mate rescue. */
struct InsertModel
{
    double mean = 400;
    double sd = 50;
    /** Pairs within mean +- sigmas*sd count as proper. */
    double sigmas = 4.0;

    int lo() const { return static_cast<int>(mean - sigmas * sd); }
    int hi() const { return static_cast<int>(mean + sigmas * sd); }
};

/**
 * Two-pass-free insert-size estimator (the BWA-MEM bootstrap recipe):
 * the caller feeds the primary (pre-rescue) records of the first N
 * pairs, then freezes one model for the whole run. freeze() is
 * order-invariant over the observation multiset (it sorts), so the
 * frozen model — and every proper-pair verdict derived from it — is
 * independent of thread count by construction.
 */
class InsertEstimator
{
  public:
    /** Both ends must clear this MAPQ to count as confidently unique. */
    static constexpr int kMinMapq = 20;
    /** Below this many observations freeze() falls back to the prior. */
    static constexpr size_t kMinObservations = 16;
    /** Pairs the CLI pulls up front to bootstrap the model. */
    static constexpr size_t kBootstrapPairs = 1024;
    /** Observations above this are discarded as chimeric outright. */
    static constexpr int64_t kMaxInsert = 100000;

    explicit InsertEstimator(InsertModel fallback = {})
        : fallback_(fallback)
    {}

    /** Consider one pair's primary records; keeps the FR insert when
     *  both ends are confidently-unique mappings on one contig. */
    void observe(const SamRecord &first, const SamRecord &second);

    /** Robust (quartile + IQR outlier rejection) mean/sd over the
     *  observations; the fallback model when too few were usable. */
    InsertModel freeze() const;

    size_t observations() const { return inserts_.size(); }

  private:
    InsertModel fallback_;
    std::vector<double> inserts_;
};

/**
 * Everything pair finalization needs besides the two records: the
 * shared context both the single-threaded PairedAligner and the
 * threaded consumers build once per run (worker-invariant, so sharing
 * it cannot make output depend on scheduling).
 */
struct PairContext
{
    const Sequence &reference;
    const ContigTable &contigs;
    const ExtensionParams &extension;
    InsertModel insert;
    bool mate_rescue = true;
    /** Anchor confidence gate for attempting a rescue. */
    int min_anchor_mapq = 20;
};

/** Outcome of finalizing one pair (counter and ledger attribution). */
struct PairOutcome
{
    bool proper = false;
    bool rescued_first = false;
    bool rescued_second = false;
    /** Engine extensions spent on rescue candidates. */
    uint32_t rescue_extensions = 0;
    /** Rescue extensions whose narrow-band speculation was accepted
     *  (SeedEx engines only; 0 for other engines). */
    uint32_t rescue_passes = 0;

    bool rescued() const { return rescued_first || rescued_second; }
};

/** FR proper-pair test against the insert window (same contig, opposite
 *  strands, reverse mate at/after the forward one, insert in window). */
bool isProperPair(const SamRecord &a, const SamRecord &b,
                  const InsertModel &model);

/**
 * Window-local mate rescue routed through the extension engine (BWA's
 * mem_matesw, SeedEx-checked): exact k-mer anchors of the oriented mate
 * are collected inside the insert window implied by `anchor`, the best
 * few become single-seed chains extended via extendChain() — the same
 * driver and jobs as primary extensions — so each rescue
 * extension gets the same full-band bit-equality acceptance proof (and
 * FilterStats funnel) as a primary extension. Returns an unmapped
 * record when no candidate clears the confidence gate.
 *
 * @param extensions_out Incremented by the engine extensions spent.
 */
SamRecord rescueMate(const std::string &name, const Sequence &mate,
                     const SamRecord &anchor, ExtensionEngine &engine,
                     const PairContext &ctx,
                     uint32_t *extensions_out = nullptr);

/**
 * Shared pair finalization: mate rescue (when enabled and exactly one
 * end is lost while the other clears the anchor gate), the proper-pair
 * verdict against the frozen insert model, and SAM pair bookkeeping
 * (FLAG bits, RNEXT/PNEXT, reciprocal TLEN: leftmost mate positive,
 * first-in-pair breaks position ties; cross-contig pairs carry the
 * mate's RNAME and TLEN 0). Both production paths — PairedAligner and
 * the threaded consumers — call exactly this function, which is what
 * makes threaded paired output bit-identical to the oracle.
 * Increments the seedex.paired.* instruments.
 */
PairOutcome finalizePair(SamRecord &first, SamRecord &second,
                         const Sequence &read1, const Sequence &read2,
                         ExtensionEngine &engine, const PairContext &ctx);

/** Snapshot of the process-wide seedex.paired.* instruments (the
 *  `paired` run-report section shares one writer with benches). */
struct PairedCounters
{
    uint64_t pairs = 0;
    uint64_t proper = 0;
    uint64_t rescues = 0;
    uint64_t rescue_attempts = 0;
    uint64_t rescue_extensions = 0;
    uint64_t rescue_passes = 0;
};

PairedCounters pairedCounters();

/** Paired-end configuration. */
struct PairedConfig
{
    PipelineConfig pipeline;
    InsertModel insert;
    /** Attempt a SeedEx-checked rescue extension for an unmapped or
     *  misplaced mate inside the other end's expected window. */
    bool mate_rescue = true;
};

/** Outcome of one pair plus rescue bookkeeping. */
struct PairedResult
{
    SamRecord first;
    SamRecord second;
    bool proper = false;
    bool rescued = false;
};

/**
 * Paired-end aligner (BWA-MEM's primary operating mode, which the
 * SeedEx-accelerated pipeline must keep serving): aligns both ends
 * single-end through the configured engine, then finalizes the pair
 * through the shared finalizePair() path — the oracle the threaded
 * paired pipeline is differentially tested against.
 */
class PairedAligner
{
  public:
    PairedAligner(const Sequence &reference, PairedConfig config);

    PairedResult alignPair(const std::string &name, const Sequence &read1,
                           const Sequence &read2,
                           PipelineStats *stats = nullptr);

    const Aligner &single() const { return single_; }

  private:
    PairedConfig config_;
    Aligner single_;
};

} // namespace seedex

#endif // SEEDEX_ALIGNER_PAIRED_H
