#include "aligner/threaded.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "aligner/batch_ring.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "util/stopwatch.h"

namespace seedex {

namespace {

/** Positive integer environment knob; `fallback` when unset/garbage. */
long
envLong(const char *name, long fallback)
{
    const char *v = std::getenv(name);
    if (v == nullptr)
        return fallback;
    char *end = nullptr;
    const long n = std::strtol(v, &end, 10);
    if (end == v || n <= 0)
        return fallback;
    return n;
}

} // namespace

void
ThreadedConfig::splitThreads(long threads)
{
    // Most threads seed; a few drive the device (§V-B).
    seeding_threads = static_cast<int>(std::max<long>(1, (threads * 3) / 4));
    fpga_threads =
        static_cast<int>(std::max<long>(1, threads - seeding_threads));
}

void
ThreadedConfig::applyEnv()
{
    if (const long threads = envLong("SEEDEX_THREADS", 0); threads > 0)
        splitThreads(threads);
    batch_size = static_cast<size_t>(
        envLong("SEEDEX_BATCH", static_cast<long>(batch_size)));
    queue_capacity = static_cast<size_t>(
        envLong("SEEDEX_QUEUE_CAP", static_cast<long>(queue_capacity)));
}

void
alignThreadedSource(const Sequence &reference, const ReadSource &source,
                    const ThreadedConfig &config, const SamSink &sink,
                    ThreadedReport *report, const FmdIndex *external_index,
                    uint64_t first_read_index)
{
    std::unique_ptr<FmdIndex> owned_index;
    if (external_index == nullptr) {
        owned_index = std::make_unique<FmdIndex>(reference);
        external_index = owned_index.get();
    }
    // Every thread that runs a step shares the stage and owns a StageCtx
    // (and so its own engine).
    const AlignStage stage(reference, *external_index, config.pipeline);
    const PairContext pair_ctx{reference, config.pipeline.contigs,
                               config.pipeline.extension, config.insert,
                               config.mate_rescue};
    const PairContext *pair = config.paired ? &pair_ctx : nullptr;

    // Paired mode rounds the batch up to even so a pair never straddles
    // a slab boundary: with an even batch size and whole-pair pulls,
    // mates sit at items 2j/2j+1 of one batch by construction.
    size_t batch_size = std::max<size_t>(1, config.batch_size);
    if (config.paired)
        batch_size += batch_size & 1;
    const int n_producers = std::max(1, config.seeding_threads);
    const int n_consumers = std::max(1, config.fpga_threads);
    BatchRing ring(config.queue_capacity);

    // In-flight bound: every batch is either unpushed in a producer, in
    // the ring, or claimed by a consumer or a helping producer (which
    // still holds its own unpushed batch). The pool free list is sized
    // to it so it never regrows, and the reorder window is at least as
    // large so producer-side reserve() admits the whole in-flight set.
    const size_t inflight_bound = ring.capacity() +
        2 * static_cast<size_t>(n_producers) +
        static_cast<size_t>(n_consumers) + 2;

    BatchPool pool(inflight_bound, batch_size);
    ReorderBuffer reorder(
        inflight_bound,
        [&](size_t base, std::vector<SamRecord> &&recs) {
            for (size_t i = 0; i < recs.size(); ++i)
                sink(base + i, std::move(recs[i]));
        });

    std::atomic<uint64_t> helped_batches{0};
    std::mutex cpu_mutex;
    double producer_cpu = 0, consumer_cpu = 0, submit_cpu = 0;
    uint64_t device_cycles = 0;
    // A finished worker's CPU split and its engine's totals join the run's.
    const auto retire = [&](const StageCtx &ctx, double producer,
                            double consumer) {
        std::lock_guard<std::mutex> lock(cpu_mutex);
        producer_cpu += producer;
        consumer_cpu += consumer;
        submit_cpu += ctx.submit_cpu;
        if (const auto *device =
                dynamic_cast<const DeviceEngine *>(ctx.engine.get()))
            device_cycles += device->cycles();
    };

    Stopwatch wall;
    wall.start();

    // The source callback runs under this mutex together with
    // sequence/base assignment, so batch numbering stays dense and read
    // indices contiguous even though producers interleave pulls.
    std::mutex source_mutex;
    uint64_t source_next_seq = 0;
    size_t source_next_base = 0;
    bool source_done = false;

    // ---- The consumer half (Fig. 12's FPGA-thread work): steps 2 and
    // 3, then the records go to the reorder window. FPGA threads run it
    // on every batch they pop; a seeding thread that finds the ring full,
    // or the input exhausted, runs it on a batch it claims. It never waits
    // on another thread: the batch was reserved before it was published,
    // so reorder.complete() cannot block.
    auto consume_batch = [&](SeededBatch *claimed, StageCtx &ctx) {
        extendSlab(stage, ctx, *claimed);
        finishSlab(ctx, *claimed, pair);
        const uint64_t seq = claimed->seq;
        const size_t base = claimed->base;
        // Slab back to the pool before the reorder hand-off so
        // producers can refill it immediately.
        pool.release(claimed);
        reorder.complete(seq, base, std::move(ctx.records));
    };

    // ---- Producers: each pulls a whole batch worth of reads, runs step
    // 1 on it in pooled slab storage, and publishes the filled slab with
    // a single ring operation.
    auto seeding_worker = [&] {
        StageCtx ctx(config.pipeline);
        // Pull buffer, recycled across pulls (the source assigns into
        // the existing strings/sequences, reusing their capacity).
        std::vector<std::pair<std::string, Sequence>> pulled(batch_size);
        // CPU spent helping with steps 2 and 3 is consumer CPU.
        double help_cpu = 0;
        const auto help = [&](SeededBatch *queued) {
            const double help_begin = threadCpuSeconds();
            consume_batch(queued, ctx);
            help_cpu += threadCpuSeconds() - help_begin;
            ++helped_batches;
        };
        const double cpu_begin = threadCpuSeconds();
        for (;;) {
            size_t n = 0;
            uint64_t seq = 0;
            size_t base = 0;
            {
                std::lock_guard<std::mutex> lock(source_mutex);
                if (source_done)
                    break;
                n = source(pulled, batch_size);
                if (n == 0) {
                    source_done = true;
                    break;
                }
                seq = source_next_seq++;
                base = source_next_base;
                source_next_base += n;
            }
            // Admission control: wait until this sequence number fits
            // the reorder window BEFORE taking a slab. Published batches
            // are then inside the window by construction, so consumers
            // never block in reorder.complete() and always drain the
            // ring (a consumer parked at the window edge while the head
            // batch sat unclaimed in the ring would deadlock the run).
            // It runs after the pull because the mutex cannot be held
            // across a blocking reserve; that is still deadlock-free:
            // smaller sequence numbers are always handed out first, and
            // their holders either block in reserve() on yet smaller
            // numbers or go on to publish, so the window head always
            // advances. Blocking here parks only this producer's pulled
            // reads — memory stays bounded by producers × batch_size.
            reorder.reserve(seq);
            SeededBatch *batch = pool.acquire();
            batch->seq = seq;
            batch->base = base;
            loadSlab(*batch, pulled, n, first_read_index + base);
            seedSlab(stage, ctx, *batch);
            // Publish; while the ring is full, help drain it rather than
            // block: claim a queued batch and run the consumer half on
            // it.
            while (!ring.tryPush(batch)) {
                SeededBatch *queued = ring.tryPop();
                if (queued == nullptr) {
                    // Drained between the two calls: there is room now
                    // (or soon), as in the plain blocking publish.
                    ring.push(batch);
                    break;
                }
                help(queued);
            }
        }
        // The input is exhausted: drain the ring alongside the FPGA
        // threads instead of leaving the backlog to them alone (with one
        // FPGA thread, that tail is what a 3+1 split loses to 2+2 on
        // extension-heavy reads).
        while (SeededBatch *queued = ring.tryPop())
            help(queued);
        retire(ctx, threadCpuSeconds() - cpu_begin - help_cpu, help_cpu);
    };

    // ---- Consumers: FPGA threads.
    auto fpga_worker = [&] {
        StageCtx ctx(config.pipeline);
        const double cpu_begin = threadCpuSeconds();
        while (SeededBatch *claimed = ring.pop())
            consume_batch(claimed, ctx);
        retire(ctx, 0, threadCpuSeconds() - cpu_begin);
    };

    std::vector<std::thread> workers;
    for (int t = 0; t < n_consumers; ++t)
        workers.emplace_back(fpga_worker);
    {
        std::vector<std::thread> producers;
        for (int t = 0; t < n_producers; ++t)
            producers.emplace_back(seeding_worker);
        for (std::thread &t : producers)
            t.join();
        ring.close();
    }
    for (std::thread &t : workers)
        t.join();
    wall.stop();

    obs::MetricsRegistry::global()
        .counter("threaded.helped_batches")
        .inc(helped_batches);
    const StageTotals &totals = stage.totals;
    const size_t total_reads = source_next_base;
    SEEDEX_LOG(Info, "threaded",
               "%zu reads in %.3f s (%d seeding + %d fpga threads, %llu "
               "batches (%llu helped), %llu extensions, %llu reruns, %llu "
               "wakeups)",
               total_reads, wall.seconds(), n_producers, n_consumers,
               static_cast<unsigned long long>(ring.claims()),
               static_cast<unsigned long long>(helped_batches.load()),
               static_cast<unsigned long long>(totals.extensions.load()),
               static_cast<unsigned long long>(totals.reruns.load()),
               static_cast<unsigned long long>(ring.wakeups()));

    if (report) {
        report->wall_seconds = wall.seconds();
        report->reads = total_reads;
        report->batches = ring.claims();
        report->helped_batches = helped_batches;
        report->extensions = totals.extensions;
        report->reruns = totals.reruns;
        report->device_cycles = device_cycles;
        report->seeding_threads = n_producers;
        report->fpga_threads = n_consumers;
        report->batch_size = batch_size;
        report->producer_cpu_seconds = producer_cpu;
        report->consumer_cpu_seconds = consumer_cpu;
        report->device_emulation_cpu_seconds = submit_cpu;
        report->device_occupancy_seconds =
            static_cast<double>(device_cycles) /
            AcceleratorOrganization{}.clock_hz;
        report->queue.publishes = ring.publishes();
        report->queue.claims = ring.claims();
        report->queue.wakeups = ring.wakeups();
        report->queue.capacity_batches = ring.capacity();
        report->queue.max_depth = ring.maxDepth();
        report->queue.avg_depth = ring.avgDepth();
        report->pool.hits = pool.hits();
        report->pool.misses = pool.misses();
        report->reorder.retired = reorder.retired();
        report->reorder.max_pending = reorder.maxPending();
        report->reorder.sink_seconds = reorder.sinkSeconds();
        report->reorder.window_wait_seconds = reorder.windowWaitSeconds();
    }
}

std::vector<SamRecord>
alignThreaded(const Sequence &reference,
              const std::vector<std::pair<std::string, Sequence>> &reads,
              const ThreadedConfig &config, ThreadedReport *report,
              const FmdIndex *index)
{
    if (config.paired && reads.size() % 2 != 0)
        throw std::invalid_argument(
            "paired threaded run requires an even read count "
            "(whole pairs)");
    // Pulls of `max` reads: in paired mode `max` is the even batch size,
    // so with an even read count every pull holds whole pairs.
    std::vector<SamRecord> records(reads.size());
    alignThreadedSource(
        reference, copyingSource(reads), config,
        [&](size_t read_idx, SamRecord &&rec) {
            records[read_idx] = std::move(rec);
        },
        report, index);
    return records;
}

} // namespace seedex
