#ifndef SEEDEX_ALIGNER_THREADED_H
#define SEEDEX_ALIGNER_THREADED_H

#include <cstdint>
#include <functional>
#include <vector>

#include "aligner/paired.h"
#include "aligner/pipeline.h"
#include "hw/accelerator.h"

namespace seedex {

/**
 * The software architecture of Fig. 12 (§V-B): seeding threads perform
 * seeding and chaining and publish whole batch slabs for FPGA threads;
 * FPGA threads claim a slab, package extension jobs, push a batch through
 * the accelerator, parse results (updating the initial score of right
 * extensions with the left-extension outcome "in the middle of parsing
 * left extension results"), handle the rerun tail, and emit SAM records.
 * The device model takes no lock (it has no state to guard), and a
 * seeding thread whose ring shard is full runs that same consumer stage
 * on a queued batch instead of blocking. Results are produced out of
 * order and streamed back in input order through a sequence-stamped
 * reorder buffer (see batch_ring.h).
 */
struct ThreadedConfig
{
    /** Producer threads (the paper allocates most threads here). */
    int seeding_threads = 3;
    /** Consumer threads driving the FPGA (load-balancing knob, §V-B). */
    int fpga_threads = 2;
    /** Reads per FPGA batch (= per published slab). */
    size_t batch_size = 64;
    /** Hand-off ring capacity, in whole batches per shard. */
    size_t queue_capacity = 8;
    /** Ring shards; 0 = auto (single shard up to 3 producers, then one
     *  per two producers, capped at 4). */
    int queue_shards = 0;
    PipelineConfig pipeline;
    AcceleratorOrganization organization;

    /**
     * Paired-end mode: the read stream supplies whole pairs as two
     * consecutive reads (R1 at even index, R2 at odd; both carrying the
     * canonical pair QNAME), the batch size is rounded up to even so
     * both mates always land in the same SeededBatch slab, and the
     * consumers finalize each pair (rescue, proper verdict, FLAG/
     * RNEXT/PNEXT/TLEN) through the shared finalizePair() path before
     * the records enter the reorder window — which therefore emits the
     * two SAM records adjacently in input order. The total read count
     * must be even (whole pairs only).
     */
    bool paired = false;
    /** Frozen insert-size model pair finalization tests against (the
     *  CLI freezes it from the bootstrap chunk before starting the
     *  pipeline, so every consumer sees one identical model). */
    InsertModel insert;
    /** Attempt SeedEx-checked mate rescue for half-mapped pairs. */
    bool mate_rescue = true;

    /**
     * Fold the environment knobs into this config (README "Threading
     * knobs"): SEEDEX_THREADS (total worker threads, split 3:1 between
     * seeding and FPGA threads, at least one each), SEEDEX_BATCH,
     * SEEDEX_QUEUE_CAP, SEEDEX_QUEUE_SHARDS. Unset or unparsable
     * variables leave the current values untouched.
     */
    void applyEnv();
};

/** Telemetry of one threaded run. */
struct ThreadedReport
{
    double wall_seconds = 0;
    uint64_t reads = 0;
    uint64_t batches = 0;
    /** Batches whose consumer stage ran on a seeding thread that found
     *  its ring shard full (included in `batches`). */
    uint64_t helped_batches = 0;
    uint64_t extensions = 0;
    uint64_t reruns = 0;
    /** Modeled FPGA occupancy summed over batches. */
    uint64_t device_cycles = 0;

    // Run shape (so a report is self-describing in sweep JSON).
    int seeding_threads = 0;
    int fpga_threads = 0;
    uint64_t batch_size = 0;

    // Per-stage CPU accounting (thread CPU clock, so the numbers stay
    // meaningful on an oversubscribed host — see threadCpuSeconds()).
    // Stages, not threads: a seeding thread's time in the consumer
    // stage of a batch it helped with counts as consumer CPU.
    double producer_cpu_seconds = 0;
    double consumer_cpu_seconds = 0;
    /** CPU spent emulating the device inside processBatch — a host
     *  artifact a real FPGA would not pay; consumer_cpu_seconds
     *  includes it. Measured around each whole processBatch call, on
     *  whichever thread ran it. */
    double device_emulation_cpu_seconds = 0;
    /** Modeled device busy time: device_cycles / clock_hz. */
    double device_occupancy_seconds = 0;

    /** Hand-off ring telemetry (threaded.queue.* instruments). */
    struct Queue
    {
        uint64_t publishes = 0;
        uint64_t claims = 0;
        uint64_t wakeups = 0;
        uint64_t shards = 0;
        uint64_t capacity_batches = 0;
        int64_t max_depth = 0;
        double avg_depth = 0;
    } queue;

    /** Slab recycling effectiveness (threaded.pool.* instruments). */
    struct Pool
    {
        uint64_t hits = 0;
        uint64_t misses = 0;
        double
        hitRate() const
        {
            const uint64_t total = hits + misses;
            return total ? static_cast<double>(hits) /
                               static_cast<double>(total)
                         : 0.0;
        }
    } pool;

    /** Reorder-buffer telemetry (threaded.reorder.* instruments). */
    struct Reorder
    {
        uint64_t retired = 0;
        int64_t max_pending = 0;
    } reorder;

    /** Pair accounting (paired mode only; zeros otherwise). */
    struct Paired
    {
        uint64_t pairs = 0;
        uint64_t proper = 0;
        uint64_t rescues = 0;
        uint64_t rescue_extensions = 0;
        uint64_t rescue_passes = 0;
    } paired;
};

/** Receives finished records in strictly increasing read_idx order. */
using SamSink = std::function<void(size_t read_idx, SamRecord &&rec)>;

/**
 * Pull-style read supplier for alignThreadedSource. `out` has at least
 * `max` elements on entry; the supplier overwrites out[0..n) (assigning
 * into the recycled strings/sequences, so their capacity is reused) and
 * returns n. Returning 0 ends the stream. Called under an internal
 * pipeline mutex, so implementations need no locking of their own, and
 * successive calls see strictly increasing file positions. In paired
 * mode every pull must return whole pairs.
 */
using ReadSource = std::function<size_t(
    std::vector<std::pair<std::string, Sequence>> &out, size_t max)>;

/**
 * Align the reads `source` supplies with the producer-consumer
 * pipeline, streaming each record to `sink` in input order as soon as
 * its batch retires from the reorder window. Producers pull a batch at
 * a time under a shared mutex and swap the reads into slab-owned
 * storage, so peak memory is bounded by the in-flight window regardless
 * of input size. Records are bit-identical to the single-threaded
 * full-band pipeline. The sink runs on consumer threads but is never
 * called concurrently; read indices passed to it count from 0 in pull
 * order. `index` lets the caller supply a prebuilt FM-index of
 * `reference` (e.g. loaded from a `.sdx` container); when null the
 * pipeline builds its own.
 */
void
alignThreadedSource(const Sequence &reference, const ReadSource &source,
                    const ThreadedConfig &config, const SamSink &sink,
                    ThreadedReport *report = nullptr,
                    const FmdIndex *index = nullptr);

/**
 * Convenience wrapper that pulls `reads` through alignThreadedSource
 * and collects the full record vector (input order). Paired mode needs
 * an even read count (std::invalid_argument otherwise). `index` is
 * passed through (null: the pipeline builds its own).
 */
std::vector<SamRecord>
alignThreaded(const Sequence &reference,
              const std::vector<std::pair<std::string, Sequence>> &reads,
              const ThreadedConfig &config,
              ThreadedReport *report = nullptr,
              const FmdIndex *index = nullptr);

} // namespace seedex

#endif // SEEDEX_ALIGNER_THREADED_H
