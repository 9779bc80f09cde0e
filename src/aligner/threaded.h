#ifndef SEEDEX_ALIGNER_THREADED_H
#define SEEDEX_ALIGNER_THREADED_H

#include <cstdint>
#include <vector>

#include "aligner/paired.h"
#include "aligner/pipeline.h"
#include "aligner/stage.h"

namespace seedex {

/**
 * The software architecture of Fig. 12 (§V-B), over the alignment stage
 * (stage.h): seeding threads run step 1 (seeding and chaining) and
 * publish whole batch slabs for FPGA threads; FPGA threads claim a slab
 * and run steps 2 and 3 (extension through the thread's own engine,
 * which under EngineKind::Device is the accelerator model; the pick;
 * pair finalization and the ledger). No engine is shared, so the device
 * model takes no lock, and a seeding thread that finds the ring full
 * runs steps 2 and 3 on a queued batch instead of blocking, as it does
 * on every batch still queued once the input is exhausted. Results are
 * produced out of order and streamed back in input order through a
 * sequence-stamped reorder buffer (see batch_ring.h).
 */
struct ThreadedConfig
{
    /** Producer threads (the paper allocates most threads here). */
    int seeding_threads = 3;
    /** Consumer threads driving the FPGA (load-balancing knob, §V-B). */
    int fpga_threads = 2;
    /** Reads per FPGA batch (= per published slab). */
    size_t batch_size = kDefaultBatchSize;
    /** Hand-off ring capacity, in whole batches. */
    size_t queue_capacity = 8;
    PipelineConfig pipeline;

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
     *  CLI freezes it from the bootstrap slab before starting the
     *  pipeline, so every consumer sees one identical model). */
    InsertModel insert;
    /** Attempt SeedEx-checked mate rescue for half-mapped pairs. */
    bool mate_rescue = true;

    /** Split `threads` workers the paper's way: 3:1 between seeding and
     *  FPGA threads, with at least one thread on each side. */
    void splitThreads(long threads);

    /**
     * Fold SEEDEX_THREADS (through splitThreads), SEEDEX_BATCH and
     * SEEDEX_QUEUE_CAP into this config. Unset or unparsable variables
     * leave the current values untouched. `seedex align` and the bench
     * binaries take flags instead; perfbench's traced driver calls this.
     */
    void applyEnv();
};

/** Telemetry of one threaded run. */
struct ThreadedReport
{
    double wall_seconds = 0;
    uint64_t reads = 0;
    uint64_t batches = 0;
    /** Batches whose consumer stage ran on a seeding thread, because it
     *  found the ring full or the input exhausted (included in
     *  `batches`). */
    uint64_t helped_batches = 0;
    uint64_t extensions = 0;
    uint64_t reruns = 0;
    /** Modeled FPGA occupancy: every thread's DeviceEngine cycles
     *  (EngineKind::Device only; 0 otherwise). */
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
    /** CPU spent inside the consumer's submit step, whatever the
     *  engine: extension CPU, and under EngineKind::Device the device
     *  emulation a real FPGA would not pay. consumer_cpu_seconds
     *  includes it. Measured around each whole submit call, on whichever
     *  thread ran it. (The name predates the other engines.) */
    double device_emulation_cpu_seconds = 0;
    /** Modeled device busy time: device_cycles at the default
     *  AcceleratorOrganization's clock (0 unless EngineKind::Device). */
    double device_occupancy_seconds = 0;

    /** Hand-off ring telemetry (threaded.queue.* instruments). */
    struct Queue
    {
        uint64_t publishes = 0;
        uint64_t claims = 0;
        uint64_t wakeups = 0;
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
        /** Wall seconds inside the sink, which runs under the window
         *  lock: the pipeline's serial section. */
        double sink_seconds = 0;
        /** Wall seconds threads waited in reserve()/complete() for the
         *  window lock or for window space, summed over threads. */
        double window_wait_seconds = 0;
    } reorder;
};

/**
 * Align the reads `source` supplies with the producer-consumer
 * pipeline, streaming each record to `sink` in input order as soon as
 * its batch retires from the reorder window. Producers pull a batch at
 * a time under a shared mutex and swap the reads into slab-owned
 * storage, so peak memory is bounded by the in-flight window regardless
 * of input size. Records, ledger records and counters are those of
 * alignInline on the same slabs, and so, for every engine but the
 * unguaranteed banded one, the records are the full band's. The sink
 * runs on consumer threads but is never called concurrently; read
 * indices passed to it count from 0 in pull order. `index` lets the
 * caller supply a prebuilt FM-index of `reference` (e.g. loaded from a
 * `.sdx` container); when null the pipeline builds its own.
 * Provenance-ledger records number the reads from `first_read_index`,
 * so a caller that aligned reads before the pipeline started (the CLI's
 * paired bootstrap slab) keeps every record's index unique.
 */
void
alignThreadedSource(const Sequence &reference, const ReadSource &source,
                    const ThreadedConfig &config, const SamSink &sink,
                    ThreadedReport *report = nullptr,
                    const FmdIndex *index = nullptr,
                    uint64_t first_read_index = 0);

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
