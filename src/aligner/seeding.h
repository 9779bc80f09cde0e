#ifndef SEEDEX_ALIGNER_SEEDING_H
#define SEEDEX_ALIGNER_SEEDING_H

#include <cstdint>
#include <vector>

#include "fmindex/fmd_index.h"
#include "fmindex/smem.h"

namespace seedex {

/**
 * One seed: an exact match between a read substring and the reference.
 *
 * Coordinates are *oriented*: qbeg indexes into the read as it aligns to
 * the forward reference strand (i.e. into revcomp(read) for
 * reverse-strand seeds), which is the frame the chainer and extender
 * work in.
 */
struct Seed
{
    int qbeg = 0;
    int len = 0;
    uint64_t rbeg = 0;
    bool reverse = false;
    /** Total occurrences of the originating SMEM (repeat pressure). */
    uint64_t occurrences = 0;

    int qend() const { return qbeg + len; }
    uint64_t rend() const { return rbeg + static_cast<uint64_t>(len); }
    /** Diagonal (reference minus query position). */
    int64_t diagonal() const
    {
        return static_cast<int64_t>(rbeg) - qbeg;
    }
};

/** Seeding configuration (BWA-MEM-compatible defaults). */
struct SeedingParams
{
    int min_seed_len = 19;
    /** Skip SMEMs with more occurrences than this (repeat filter). */
    uint64_t max_occurrences = 64;
    /** Hits materialized per SMEM. */
    size_t max_hits = 32;
};

/**
 * Reusable scratch for the seeding stage: SMEM workspace, per-read SMEM
 * buffers, and the hit scratch of seed materialization. One per thread;
 * buffers grow to the workload high-water mark, so steady-state seeding
 * performs zero heap allocations (same arena discipline as DpWorkspace).
 */
struct SeedWorkspace
{
    /** Batch-path search states. */
    SmemWorkspace smem;
    /** Scalar-path SMEM buffer. */
    std::vector<Smem> smems;
    /** Batch-path SMEM buffers, one per in-flight read. */
    std::vector<std::vector<Smem>> smem_batch;
    /** locate() scratch of seed materialization. */
    std::vector<FmdHit> hits;

    /** This thread's workspace (created on first use). */
    static SeedWorkspace &tls();
};

/**
 * Number of reads whose SMEM searches advance in lockstep through one
 * FmdIndex::extendBatch round (SEEDEX_SEED_BATCH, default 16, clamped
 * to [1, 256]). 1 disables batching.
 */
size_t seedBatchSize();

/**
 * Seeding stage: SMEM generation plus hit lookup, producing oriented
 * seeds ready for chaining. This is the stage the ERT accelerator [35]
 * speeds up; the pipeline model charges its time to the "seeding" bar of
 * Fig. 17.
 */
std::vector<Seed> collectSeeds(const FmdIndex &index, const Sequence &read,
                               const SeedingParams &params);

/** collectSeeds into a caller-owned vector with reusable scratch (the
 *  zero-allocation form; `seeds` is cleared first). */
void collectSeedsInto(const FmdIndex &index, const Sequence &read,
                      const SeedingParams &params, SeedWorkspace &ws,
                      std::vector<Seed> &seeds);

/**
 * Seeding for a batch of reads: SMEM generation runs in lockstep across
 * the batch (collectSmemsBatch) so each extension round prefetches every
 * read's next BWT block before computing any of them. `out` must have n
 * entries; each is cleared and filled with exactly the seeds
 * collectSeeds would produce for that read.
 */
void collectSeedsBatch(const FmdIndex &index,
                       const Sequence *const *reads, size_t n,
                       const SeedingParams &params, SeedWorkspace &ws,
                       std::vector<std::vector<Seed>> &out);

} // namespace seedex

#endif // SEEDEX_ALIGNER_SEEDING_H
