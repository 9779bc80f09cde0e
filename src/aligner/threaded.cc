#include "aligner/threaded.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>
#include <thread>

#include "align/kernel.h"
#include "aligner/batch_ring.h"
#include "obs/ledger.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/perfcounters.h"
#include "obs/trace.h"
#include "util/stopwatch.h"

namespace seedex {

namespace {

/** Producer-consumer instruments (Fig. 12): the batch/rerun counters
 *  the ThreadedReport aggregates per run (queue/pool/reorder pressure
 *  lives with the structures in batch_ring.cc). */
struct ThreadedMetrics
{
    obs::Counter &reads =
        obs::MetricsRegistry::global().counter("threaded.reads");
    obs::Counter &batches =
        obs::MetricsRegistry::global().counter("threaded.batches");
    obs::Counter &extensions =
        obs::MetricsRegistry::global().counter("threaded.extensions");
    obs::Counter &reruns =
        obs::MetricsRegistry::global().counter("threaded.reruns");
    obs::Counter &helped_batches =
        obs::MetricsRegistry::global().counter("threaded.helped_batches");
    obs::LatencyHistogram &batch_wall =
        obs::MetricsRegistry::global().histogram(
            "threaded.batch.wall_seconds");
};

ThreadedMetrics &
threadedMetrics()
{
    static ThreadedMetrics metrics;
    return metrics;
}

/** Hardware-counter profiles for the producer-consumer stages (same
 *  names as the TraceSpans). */
struct ThreadedProfiles
{
    obs::StageProfile &seed_chunk =
        obs::PerfRegistry::global().stage("threaded.seed_chunk");
    obs::StageProfile &fpga_batch =
        obs::PerfRegistry::global().stage("threaded.fpga_batch");
};

ThreadedProfiles &
threadedProfiles()
{
    static ThreadedProfiles profiles;
    return profiles;
}

/**
 * Per-thread state of the consumer stage: scratch recycled across
 * batches and the run's extension engine (makeEngine), which extends
 * the slab's flanks outside the device backend and does mate rescue in
 * paired mode. Every FPGA thread owns one, and so does each seeding
 * thread from the first batch it helps with.
 */
struct ConsumerCtx
{
    explicit ConsumerCtx(const PipelineConfig &pipeline)
        : engine(makeEngine(pipeline)),
          seedex(dynamic_cast<const SeedExEngine *>(engine.get()))
    {}

    /** Full-band reruns the engine has run so far: the SeedEx engine's
     *  rejected verdicts (the other engines never rerun). */
    uint64_t
    engineReruns() const
    {
        if (seedex == nullptr)
            return 0;
        const FilterStats &f = seedex->stats();
        return f.total - f.pass_s2 - f.pass_checks;
    }

    /** The slab's chain table and, parallel to it, each slot's item. */
    std::vector<ChainSlot> slots;
    std::vector<size_t> slot_item;
    ExtensionBatch batch;
    std::vector<obs::ReadRecord> ledger_recs;
    std::vector<int> rec_of_item;
    /** Each submitted job's ledger record (null: not recorded). */
    std::vector<obs::ReadRecord *> job_recs;
    std::unique_ptr<ExtensionEngine> engine;
    const SeedExEngine *seedex;
    /** CPU spent inside the submit step. */
    double submit_cpu = 0;
};

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
ThreadedConfig::applyEnv()
{
    const long threads = envLong("SEEDEX_THREADS", 0);
    if (threads > 0) {
        // The paper's 3:1 split (most threads seed; a few drive the
        // device), with at least one thread on each side.
        seeding_threads =
            static_cast<int>(std::max<long>(1, (threads * 3) / 4));
        fpga_threads =
            static_cast<int>(std::max<long>(1, threads - seeding_threads));
    }
    batch_size = static_cast<size_t>(
        envLong("SEEDEX_BATCH", static_cast<long>(batch_size)));
    queue_capacity = static_cast<size_t>(
        envLong("SEEDEX_QUEUE_CAP", static_cast<long>(queue_capacity)));
    queue_shards = static_cast<int>(
        envLong("SEEDEX_QUEUE_SHARDS", static_cast<long>(queue_shards)));
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
    const FmdIndex &index = *external_index;
    // The device backend (EngineKind::Device) models the single FPGA:
    // one accelerator instance shared, without a lock, by every thread
    // that runs the consumer stage. §V-B's FPGA threads lock to drive
    // the physical device's state; the model has none (processBatch is
    // const, its per-batch state is local and its sums are atomic), and
    // modeled occupancy — the sum of per-batch critical paths — does not
    // depend on which thread runs a batch or when. Every other engine
    // extends on the consumer's own engine and never builds the model.
    std::optional<SeedExAccelerator> device;
    if (config.pipeline.engine == EngineKind::Device) {
        SeedExConfig filter_cfg = config.pipeline.seedex;
        filter_cfg.band = config.pipeline.band;
        filter_cfg.scoring = config.pipeline.extension.scoring;
        device.emplace(config.organization, filter_cfg);
    }

    // Paired mode rounds the batch up to even so a pair never straddles
    // a slab boundary: with an even batch size and whole-pair pulls,
    // mates sit at items 2j/2j+1 of one batch by construction.
    size_t batch_size = std::max<size_t>(1, config.batch_size);
    if (config.paired)
        batch_size += batch_size & 1;
    const int n_producers = std::max(1, config.seeding_threads);
    const int n_consumers = std::max(1, config.fpga_threads);
    size_t shards = config.queue_shards > 0
        ? static_cast<size_t>(config.queue_shards)
        : (n_producers <= 3
               ? 1
               : std::min<size_t>(4,
                                  static_cast<size_t>(n_producers) / 2));
    shards = std::min<size_t>(shards, static_cast<size_t>(n_producers));
    const size_t capacity = std::max<size_t>(1, config.queue_capacity);

    // In-flight bound: every batch is either unpushed in a producer, in
    // the ring, or claimed by a consumer or a helping producer (which
    // still holds its own unpushed batch). The pool free list is sized
    // to it so it never regrows, and the reorder window is at least as
    // large so producer-side reserve() admits the whole in-flight set.
    const size_t inflight_bound = shards * capacity +
        2 * static_cast<size_t>(n_producers) +
        static_cast<size_t>(n_consumers) + 2;

    BatchRing ring(capacity, shards);
    BatchPool pool(inflight_bound, batch_size);
    ReorderBuffer reorder(
        inflight_bound,
        [&](size_t base, std::vector<SamRecord> &&recs) {
            for (size_t i = 0; i < recs.size(); ++i)
                sink(base + i, std::move(recs[i]));
        });

    std::atomic<uint64_t> extensions{0}, reruns{0}, batches{0},
        helped_batches{0}, device_cycles{0};
    std::atomic<uint64_t> pair_count{0}, pair_proper{0}, pair_rescues{0},
        pair_rescue_ext{0}, pair_rescue_passes{0};
    std::mutex cpu_mutex;
    double producer_cpu = 0, consumer_cpu = 0, submit_cpu = 0;

    Stopwatch wall;
    wall.start();

    // The source callback runs under this mutex together with
    // sequence/base assignment, so batch numbering stays dense and read
    // indices contiguous even though producers interleave pulls.
    std::mutex source_mutex;
    uint64_t source_next_seq = 0;
    size_t source_next_base = 0;
    bool source_done = false;

    // ---- Producers: seeding + chaining into pooled batch slabs. Each
    // pulls a whole batch worth of reads and advances their SMEM
    // searches in lockstep (collectSeedsBatch) a seed-chunk at a time,
    // so the FM-index walks overlap in the memory system; the filled
    // slab is published with a single ring operation.
    const size_t seed_chunk = seedBatchSize();
    auto seed_slab = [&](SeededBatch *batch,
                         std::vector<const Sequence *> &queries,
                         std::vector<std::vector<Seed>> &seeds,
                         SeedWorkspace &ws, ChainWorkspace &cws) {
        const size_t n = batch->n_items;
        for (size_t chunk = 0; chunk < n; chunk += seed_chunk) {
            const size_t m = std::min(seed_chunk, n - chunk);
            obs::TraceSpan span("threaded.seed_chunk", "threaded");
            obs::PerfScope perf(threadedProfiles().seed_chunk);
            for (size_t r = 0; r < m; ++r)
                queries[r] = &batch->items[chunk + r].read;
            collectSeedsBatch(index, queries.data(), m,
                              config.pipeline.seeding, ws, seeds);
            for (size_t r = 0; r < m; ++r) {
                SeededRead &item = batch->items[chunk + r];
                item.n_seeds = static_cast<uint32_t>(seeds[r].size());
                item.n_chains = chainSeedsInto(
                    seeds[r], config.pipeline.chaining, cws,
                    item.chains);
                bool any_reverse = false;
                for (size_t c = 0; c < item.n_chains; ++c)
                    any_reverse |= item.chains[c].reverse;
                if (any_reverse)
                    item.read.reverseComplementInto(
                        item.reverse_complement);
            }
        }
    };

    // ---- The consumer stage (Fig. 12's FPGA-thread work): the shared
    // extension driver submits the slab's left flanks, then its right
    // flanks, to the run's engine (or the device model); then the best
    // chain per read becomes SAM, pairs are finalized, and the records
    // go to the reorder window. FPGA threads run it on every batch they
    // pop; a seeding thread whose ring shard is full runs it on a batch
    // it claims instead of blocking. It never waits on another thread:
    // the batch was reserved before it was published, so
    // reorder.complete() cannot block.
    const ExtensionParams &xp = config.pipeline.extension;
    const PairContext pair_ctx{reference, config.pipeline.contigs, xp,
                               config.insert, config.mate_rescue};
    auto consume_batch = [&](SeededBatch *claimed, ConsumerCtx &ctx) {
        std::vector<ChainSlot> &slots = ctx.slots;
        std::vector<obs::ReadRecord> &ledger_recs = ctx.ledger_recs;
        std::vector<int> &rec_of_item = ctx.rec_of_item;
        SeededBatch &batch = *claimed;
        obs::TraceSpan batch_span("threaded.fpga_batch", "threaded");
        obs::PerfScope batch_perf(threadedProfiles().fpga_batch);
        Stopwatch batch_watch;
        batch_watch.start();
        ++batches;

        // Provenance ledger: a read's journey spans producer and
        // consumer threads, so records are assembled here per batch
        // (keyed by batch item) and published whole. The submit step
        // attaches each job's record while the engine extends it, so
        // the lower layers fill in the same fields as on the inline
        // path.
        obs::Ledger &ledger = obs::Ledger::global();
        const bool ledger_on = ledger.enabled();
        ledger_recs.clear();
        if (ledger_on) {
            rec_of_item.assign(batch.n_items, -1);
            for (size_t i = 0; i < batch.n_items; ++i) {
                const uint64_t read_index =
                    first_read_index + batch.items[i].read_idx;
                if (!ledger.shouldRecord(read_index))
                    continue;
                obs::ReadRecord rec;
                rec.read_index = read_index;
                rec.name = batch.items[i].name;
                rec.seeds = batch.items[i].n_seeds;
                rec.chains =
                    static_cast<uint32_t>(batch.items[i].n_chains);
                rec.band = ledgerBand(config.pipeline);
                rec.kernel = kernelIsaName(kernelDispatch());
                rec_of_item[i] =
                    static_cast<int>(ledger_recs.size());
                ledger_recs.push_back(std::move(rec));
            }
        }

        // Chain table for the whole batch.
        slots.clear();
        ctx.slot_item.clear();
        for (size_t i = 0; i < batch.n_items; ++i) {
            const SeededRead &item = batch.items[i];
            for (size_t c = 0; c < item.n_chains; ++c) {
                const Chain &chain = item.chains[c];
                slots.push_back({&chain,
                                 chain.reverse ? &item.reverse_complement
                                               : &item.read,
                                 {}});
                ctx.slot_item.push_back(i);
            }
        }

        // The submit step, once per flank side: the side's jobs in job
        // order through the consumer's engine, or as one batch through
        // the device model. The device's per-job BatchResult vectors are
        // parallel to the jobs, which is how each outcome reaches its
        // read's ledger record there.
        const ExtensionSubmit submit = [&](ExtensionBatch &b) {
            obs::TraceSpan submit_span("threaded.submit", "threaded");
            const double submit_begin = threadCpuSeconds();
            extensions += b.jobs.size();
            ctx.job_recs.clear();
            for (size_t k = 0; ledger_on && k < b.jobs.size(); ++k) {
                const int ri = rec_of_item[ctx.slot_item[b.slot_of[k]]];
                ctx.job_recs.push_back(
                    ri < 0 ? nullptr
                           : &ledger_recs[static_cast<size_t>(ri)]);
            }
            if (device) {
                BatchResult res = device->processBatch(b.jobs);
                device_cycles += res.device_cycles;
                reruns += res.reruns_checks + res.reruns_exception;
                for (size_t k = 0; k < ctx.job_recs.size(); ++k) {
                    obs::ReadRecord *rec = ctx.job_recs[k];
                    if (rec == nullptr)
                        continue;
                    ++rec->extensions;
                    ++rec->kernel_calls; // the narrow speculation
                    rec->addVerdict(ledgerVerdict(res.verdicts[k]),
                                    res.edit_runs[k]);
                    if (res.rerun[k]) {
                        ++rec->reruns;
                        ++rec->kernel_calls; // host full-band rerun
                    }
                    rec->band_used =
                        std::max(rec->band_used, res.results[k].max_off);
                }
                b.results = std::move(res.results);
            } else {
                const uint64_t reruns_before = ctx.engineReruns();
                submitToEngine(*ctx.engine, b, ctx.job_recs);
                reruns += ctx.engineReruns() - reruns_before;
            }
            ctx.submit_cpu += threadCpuSeconds() - submit_begin;
        };
        extendChains(slots, reference, xp, ctx.batch, submit);

        // Post-processing: best chain per read, traceback, SAM,
        // then hand the whole batch to the reorder window.
        obs::TraceSpan post_span("threaded.postprocess", "threaded");
        std::vector<SamRecord> recs(batch.n_items);
        size_t s = 0;
        for (size_t i = 0; i < batch.n_items; ++i) {
            const SeededRead &item = batch.items[i];
            if (item.n_chains == 0) {
                recs[i] = unmappedRecord(item.name, item.read);
                continue;
            }
            size_t chosen = 0;
            recs[i] = bestChainRecord(
                item.name, item.read,
                std::span<const ChainSlot>(slots).subspan(s, item.n_chains),
                reference, config.pipeline, chosen);
            if (ledger_on && rec_of_item[i] >= 0) {
                obs::ReadRecord &rec =
                    ledger_recs[static_cast<size_t>(rec_of_item[i])];
                rec.chain_chosen = static_cast<int>(chosen);
                rec.score = recs[i].score;
                rec.mapped = recs[i].mapped();
            }
            s += item.n_chains;
        }
        // Pair finalization: mates sit at items 2j/2j+1 of this
        // slab (even batch size + whole-pair feed), so rescue, the
        // proper verdict, and the SAM pair bookkeeping run here —
        // before the batch enters the reorder window, which then
        // emits both records adjacently in input order for free.
        if (config.paired) {
            for (size_t i = 0; i + 1 < batch.n_items; i += 2) {
                const PairOutcome po = finalizePair(
                    recs[i], recs[i + 1], batch.items[i].read,
                    batch.items[i + 1].read, *ctx.engine, pair_ctx);
                ++pair_count;
                pair_proper += po.proper ? 1 : 0;
                pair_rescues += po.rescued() ? 1 : 0;
                pair_rescue_ext += po.rescue_extensions;
                pair_rescue_passes += po.rescue_passes;
                if (!ledger_on)
                    continue;
                for (size_t m = 0; m < 2; ++m) {
                    const int ri = rec_of_item[i + m];
                    if (ri < 0)
                        continue;
                    obs::ReadRecord &rec =
                        ledger_recs[static_cast<size_t>(ri)];
                    rec.paired = true;
                    rec.proper = po.proper;
                    const bool rescued = m == 0 ? po.rescued_first
                                                : po.rescued_second;
                    rec.pair_rescued = rescued;
                    if (rescued)
                        rec.rescue_extensions += po.rescue_extensions;
                    // Rescue can replace the record outright.
                    rec.score = recs[i + m].score;
                    rec.mapped = recs[i + m].mapped();
                }
            }
        }
        if (ledger_on) {
            for (obs::ReadRecord &rec : ledger_recs)
                ledger.publish(std::move(rec));
        }
        const uint64_t seq = batch.seq;
        const size_t base = batch.base;
        const size_t n_items = batch.n_items;
        // Slab back to the pool before the (possibly blocking)
        // reorder hand-off so producers can refill it immediately.
        pool.release(claimed);
        reorder.complete(seq, base, std::move(recs));

        batch_watch.stop();
        ThreadedMetrics &m = threadedMetrics();
        m.batches.inc();
        m.reads.inc(n_items);
        m.batch_wall.observe(batch_watch.seconds());
        SEEDEX_LOG(Debug, "threaded",
                   "fpga batch: %zu reads, %zu slots in %.3f ms",
                   n_items, slots.size(),
                   batch_watch.seconds() * 1e3);
    };

    auto seeding_worker = [&](size_t producer_id) {
        SeedWorkspace &ws = SeedWorkspace::tls();
        ChainWorkspace &cws = ChainWorkspace::tls();
        std::vector<const Sequence *> queries(seed_chunk);
        std::vector<std::vector<Seed>> seeds(seed_chunk);
        // Pull buffer, recycled across pulls (the source assigns into
        // the existing strings/sequences, reusing their capacity).
        std::vector<std::pair<std::string, Sequence>> pulled(batch_size);
        // Consumer-stage state, created on the first batch this thread
        // helps with; the CPU it spends there is consumer CPU.
        std::unique_ptr<ConsumerCtx> helper;
        double help_cpu = 0;
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
            // batch sat unclaimed in another shard would deadlock the
            // run). It runs after the pull because the mutex cannot be
            // held across a blocking reserve; that is still
            // deadlock-free: smaller sequence numbers are always handed
            // out first, and their holders either block in reserve() on
            // yet smaller numbers or go on to publish, so the window
            // head always advances. Blocking here parks only this
            // producer's pulled reads — memory stays bounded by
            // producers × batch_size.
            reorder.reserve(seq);
            SeededBatch *batch = pool.acquire();
            batch->seq = seq;
            batch->base = base;
            batch->n_items = n;
            for (size_t i = 0; i < n; ++i) {
                SeededRead &item = batch->items[i];
                item.read_idx = base + i;
                std::swap(item.name, pulled[i].first);
                std::swap(item.read, pulled[i].second);
            }
            seed_slab(batch, queries, seeds, ws, cws);
            // Publish; while the home shard is full, help drain it
            // rather than block: claim a queued batch and run the
            // consumer stage on it.
            while (!ring.tryPush(batch, producer_id)) {
                SeededBatch *help = ring.tryPop(producer_id);
                if (help == nullptr) {
                    // Drained between the two calls: there is room now
                    // (or soon), as in the plain blocking publish.
                    ring.push(batch, producer_id);
                    break;
                }
                if (!helper)
                    helper = std::make_unique<ConsumerCtx>(config.pipeline);
                const double help_begin = threadCpuSeconds();
                consume_batch(help, *helper);
                help_cpu += threadCpuSeconds() - help_begin;
                ++helped_batches;
            }
        }
        const double cpu = threadCpuSeconds() - cpu_begin;
        std::lock_guard<std::mutex> lock(cpu_mutex);
        producer_cpu += cpu - help_cpu;
        consumer_cpu += help_cpu;
        if (helper)
            submit_cpu += helper->submit_cpu;
    };

    // ---- Consumers: FPGA threads.
    auto fpga_worker = [&](size_t consumer_id) {
        ConsumerCtx ctx(config.pipeline);
        const double cpu_begin = threadCpuSeconds();
        while (SeededBatch *claimed = ring.pop(consumer_id))
            consume_batch(claimed, ctx);
        const double cpu = threadCpuSeconds() - cpu_begin;
        std::lock_guard<std::mutex> lock(cpu_mutex);
        consumer_cpu += cpu;
        submit_cpu += ctx.submit_cpu;
    };

    std::vector<std::thread> workers;
    for (int t = 0; t < n_consumers; ++t)
        workers.emplace_back(fpga_worker, static_cast<size_t>(t));
    {
        std::vector<std::thread> producers;
        for (int t = 0; t < n_producers; ++t)
            producers.emplace_back(seeding_worker,
                                   static_cast<size_t>(t));
        for (std::thread &t : producers)
            t.join();
        ring.close();
    }
    for (std::thread &t : workers)
        t.join();
    wall.stop();

    {
        ThreadedMetrics &m = threadedMetrics();
        m.extensions.inc(extensions);
        m.reruns.inc(reruns);
        m.helped_batches.inc(helped_batches);
    }
    const size_t total_reads = source_next_base;
    SEEDEX_LOG(Info, "threaded",
               "%zu reads in %.3f s (%d seeding + %d fpga threads, %llu "
               "batches (%llu helped), %llu extensions, %llu reruns, %llu "
               "wakeups)",
               total_reads, wall.seconds(), n_producers, n_consumers,
               static_cast<unsigned long long>(batches.load()),
               static_cast<unsigned long long>(helped_batches.load()),
               static_cast<unsigned long long>(extensions.load()),
               static_cast<unsigned long long>(reruns.load()),
               static_cast<unsigned long long>(ring.wakeups()));

    if (report) {
        report->wall_seconds = wall.seconds();
        report->reads = total_reads;
        report->batches = batches;
        report->helped_batches = helped_batches;
        report->extensions = extensions;
        report->reruns = reruns;
        report->device_cycles = device_cycles;
        report->seeding_threads = n_producers;
        report->fpga_threads = n_consumers;
        report->batch_size = batch_size;
        report->producer_cpu_seconds = producer_cpu;
        report->consumer_cpu_seconds = consumer_cpu;
        report->device_emulation_cpu_seconds = submit_cpu;
        report->device_occupancy_seconds =
            config.organization.clock_hz > 0
                ? static_cast<double>(device_cycles.load()) /
                    config.organization.clock_hz
                : 0.0;
        report->queue.publishes = ring.publishes();
        report->queue.claims = ring.claims();
        report->queue.wakeups = ring.wakeups();
        report->queue.shards = ring.shardCount();
        report->queue.capacity_batches = ring.capacityPerShard();
        report->queue.max_depth = ring.maxDepth();
        report->queue.avg_depth = ring.avgDepth();
        report->pool.hits = pool.hits();
        report->pool.misses = pool.misses();
        report->reorder.retired = reorder.retired();
        report->reorder.max_pending = reorder.maxPending();
        report->reorder.sink_seconds = reorder.sinkSeconds();
        report->reorder.window_wait_seconds = reorder.windowWaitSeconds();
        report->paired.pairs = pair_count;
        report->paired.proper = pair_proper;
        report->paired.rescues = pair_rescues;
        report->paired.rescue_extensions = pair_rescue_ext;
        report->paired.rescue_passes = pair_rescue_passes;
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
    size_t next = 0;
    const ReadSource source =
        [&](std::vector<std::pair<std::string, Sequence>> &out,
            size_t max) {
            const size_t n = std::min(max, reads.size() - next);
            std::copy_n(reads.begin() + static_cast<ptrdiff_t>(next), n,
                        out.begin());
            next += n;
            return n;
        };
    std::vector<SamRecord> records(reads.size());
    alignThreadedSource(
        reference, source, config,
        [&](size_t read_idx, SamRecord &&rec) {
            records[read_idx] = std::move(rec);
        },
        report, index);
    return records;
}

} // namespace seedex
