#include "aligner/stage.h"

#include <algorithm>
#include <span>

#include "align/kernel.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/perfcounters.h"
#include "obs/trace.h"
#include "util/stopwatch.h"

namespace seedex {

namespace {

/** The stage's instruments, counted per slab whichever driver runs it
 *  (Fig. 17's per-stage bars as live counters and latency percentiles). */
struct StageMetrics
{
    obs::Counter &reads =
        obs::MetricsRegistry::global().counter("stage.reads");
    obs::Counter &batches =
        obs::MetricsRegistry::global().counter("stage.batches");
    obs::Counter &extensions =
        obs::MetricsRegistry::global().counter("stage.extensions");
    obs::Counter &reruns =
        obs::MetricsRegistry::global().counter("stage.reruns");
    obs::LatencyHistogram &seed =
        obs::MetricsRegistry::global().histogram("stage.seed.seconds");
    obs::LatencyHistogram &extend =
        obs::MetricsRegistry::global().histogram("stage.extend.seconds");
    obs::LatencyHistogram &finish =
        obs::MetricsRegistry::global().histogram("stage.finish.seconds");
};

StageMetrics &
stageMetrics()
{
    static StageMetrics metrics;
    return metrics;
}

/** Hardware-counter profiles of the three steps (same names as the
 *  TraceSpans so timeline and IPC line up). */
struct StageProfiles
{
    obs::StageProfile &seed = obs::PerfRegistry::global().stage("stage.seed");
    obs::StageProfile &extend =
        obs::PerfRegistry::global().stage("stage.extend");
    obs::StageProfile &finish =
        obs::PerfRegistry::global().stage("stage.finish");
};

StageProfiles &
stageProfiles()
{
    static StageProfiles profiles;
    return profiles;
}

} // namespace

StageCtx::StageCtx(const PipelineConfig &pipeline)
    : engine(makeEngine(pipeline)),
      seedex(dynamic_cast<const SeedExEngine *>(engine.get()))
{}

ReadSource
copyingSource(const std::vector<std::pair<std::string, Sequence>> &reads)
{
    return [&reads, next = size_t{0}](
               std::vector<std::pair<std::string, Sequence>> &out,
               size_t max) mutable {
        const size_t n = std::min(max, reads.size() - next);
        std::copy_n(reads.begin() + static_cast<ptrdiff_t>(next), n,
                    out.begin());
        next += n;
        return n;
    };
}

void
loadSlab(SeededBatch &slab,
         std::vector<std::pair<std::string, Sequence>> &pulled, size_t n,
         uint64_t first_index)
{
    slab.n_items = n;
    for (size_t i = 0; i < n; ++i) {
        SeededRead &item = slab.items[i];
        item.read_idx = first_index + i;
        std::swap(item.name, pulled[i].first);
        std::swap(item.read, pulled[i].second);
    }
}

void
seedSlab(const AlignStage &stage, StageCtx &ctx, SeededBatch &slab)
{
    obs::TraceSpan span("stage.seed", "stage");
    obs::PerfScope perf(stageProfiles().seed);
    Stopwatch watch;
    watch.start();
    const PipelineConfig &cfg = stage.pipeline;
    SeedWorkspace &ws = SeedWorkspace::tls();
    ChainWorkspace &cws = ChainWorkspace::tls();
    // Lockstep chunks, so the chunk's FM-index walks overlap in the
    // memory system; a chunk of one runs the scalar driver.
    const size_t chunk = seedBatchSize();
    ctx.queries.resize(chunk);
    ctx.seeds.resize(chunk);
    const size_t n = slab.n_items;
    for (size_t base = 0; base < n; base += chunk) {
        const size_t m = std::min(chunk, n - base);
        if (chunk == 1) {
            collectSeedsInto(stage.index, slab.items[base].read, cfg.seeding,
                             ws, ctx.seeds[0]);
        } else {
            for (size_t r = 0; r < m; ++r)
                ctx.queries[r] = &slab.items[base + r].read;
            collectSeedsBatch(stage.index, ctx.queries.data(), m,
                              cfg.seeding, ws, ctx.seeds);
        }
        for (size_t r = 0; r < m; ++r) {
            SeededRead &item = slab.items[base + r];
            item.n_seeds = static_cast<uint32_t>(ctx.seeds[r].size());
            item.n_chains =
                chainSeedsInto(ctx.seeds[r], cfg.chaining, cws, item.chains);
            bool any_reverse = false;
            for (size_t c = 0; c < item.n_chains; ++c)
                any_reverse |= item.chains[c].reverse;
            if (any_reverse)
                item.read.reverseComplementInto(item.reverse_complement);
        }
    }
    watch.stop();
    stageMetrics().seed.observe(watch.seconds());
    if (ctx.stats != nullptr)
        ctx.stats->times.seeding += watch.seconds();
}

void
extendSlab(const AlignStage &stage, StageCtx &ctx, const SeededBatch &slab)
{
    obs::TraceSpan span("stage.extend", "stage");
    obs::PerfScope perf(stageProfiles().extend);
    Stopwatch watch, extension_watch;
    watch.start();
    const PipelineConfig &cfg = stage.pipeline;
    const size_t n = slab.n_items;
    StageTotals &totals = stage.totals;

    // Provenance ledger: one record per sampled read, keyed by item and
    // published whole in step 3. The submit step attaches each job's
    // record while the engine extends it, so the lower layers (kernel,
    // filter funnel) fill in their fields.
    obs::Ledger &ledger = obs::Ledger::global();
    ctx.ledger_on = ledger.enabled();
    ctx.ledger_recs.clear();
    if (ctx.ledger_on) {
        ctx.rec_of_item.assign(n, -1);
        for (size_t i = 0; i < n; ++i) {
            const SeededRead &item = slab.items[i];
            if (!ledger.shouldRecord(item.read_idx))
                continue;
            obs::ReadRecord rec;
            rec.read_index = item.read_idx;
            rec.name = item.name;
            rec.seeds = item.n_seeds;
            rec.chains = static_cast<uint32_t>(item.n_chains);
            // The full band has no band to report.
            rec.band = cfg.engine == EngineKind::FullBand ? -1 : cfg.band;
            rec.kernel = kernelIsaName(kernelDispatch());
            ctx.rec_of_item[i] = static_cast<int>(ctx.ledger_recs.size());
            ctx.ledger_recs.push_back(std::move(rec));
        }
    }

    // Chain table for the whole slab.
    ctx.slots.clear();
    ctx.slot_item.clear();
    for (size_t i = 0; i < n; ++i) {
        const SeededRead &item = slab.items[i];
        for (size_t c = 0; c < item.n_chains; ++c) {
            const Chain &chain = item.chains[c];
            ctx.slots.push_back(
                {&chain,
                 chain.reverse ? &item.reverse_complement : &item.read,
                 {}});
            ctx.slot_item.push_back(i);
        }
    }

    // The submit step, once per flank side: the side's jobs through the
    // thread's engine, with each job's ledger record so the engine books
    // the job's outcome onto its read.
    uint64_t extensions = 0, reruns = 0;
    const ExtensionSubmit submit = [&](ExtensionBatch &b) {
        obs::TraceSpan submit_span("stage.submit", "stage");
        const double submit_begin = threadCpuSeconds();
        const std::span<const ExtensionJob> jobs = b.jobs();
        extensions += jobs.size();
        if (ctx.capture != nullptr)
            ctx.capture->insert(ctx.capture->end(), jobs.begin(),
                                jobs.end());
        ctx.job_recs.clear();
        for (size_t k = 0; ctx.ledger_on && k < jobs.size(); ++k) {
            const int ri = ctx.rec_of_item[ctx.slot_item[b.slot_of[k]]];
            ctx.job_recs.push_back(
                ri < 0 ? nullptr : &ctx.ledger_recs[static_cast<size_t>(ri)]);
        }
        const uint64_t reruns_before = ctx.engine->reruns();
        ctx.engine->extendBatch(jobs, b.results, ctx.job_recs);
        reruns += ctx.engine->reruns() - reruns_before;
        ctx.submit_cpu += threadCpuSeconds() - submit_begin;
    };
    extension_watch.start();
    extendChains(ctx.slots, stage.reference, cfg.extension, ctx.batch,
                 submit);
    extension_watch.stop();
    totals.extensions += extensions;
    totals.reruns += reruns;

    // Pick: best chain per read, traceback, SAM.
    ctx.records.resize(n);
    uint64_t unmapped = 0;
    size_t s = 0;
    for (size_t i = 0; i < n; ++i) {
        const SeededRead &item = slab.items[i];
        SamRecord &sam = ctx.records[i];
        if (item.n_chains == 0) {
            sam = unmappedRecord(item.name, item.read);
        } else {
            size_t chosen = 0;
            sam = bestChainRecord(item.name, item.read,
                                  std::span<const ChainSlot>(ctx.slots)
                                      .subspan(s, item.n_chains),
                                  stage.reference, cfg, chosen);
            s += item.n_chains;
            if (ctx.ledger_on && ctx.rec_of_item[i] >= 0) {
                obs::ReadRecord &rec =
                    ctx.ledger_recs[static_cast<size_t>(ctx.rec_of_item[i])];
                rec.chain_chosen = static_cast<int>(chosen);
                rec.score = sam.score;
                rec.mapped = sam.mapped();
            }
        }
        unmapped += sam.mapped() ? 0 : 1;
    }
    watch.stop();

    StageMetrics &m = stageMetrics();
    m.batches.inc();
    m.reads.inc(n);
    m.extensions.inc(extensions);
    m.reruns.inc(reruns);
    m.extend.observe(watch.seconds());
    if (PipelineStats *stats = ctx.stats) {
        stats->reads += n;
        stats->unmapped += unmapped;
        stats->extensions += extensions;
        stats->times.extension += extension_watch.seconds();
        stats->times.other += watch.seconds() - extension_watch.seconds();
        if (ctx.seedex != nullptr)
            stats->filter = ctx.seedex->stats();
    }
    SEEDEX_LOG(Debug, "stage", "slab: %zu reads, %zu chains in %.3f ms", n,
               ctx.slots.size(), watch.seconds() * 1e3);
}

void
finishSlab(StageCtx &ctx, const SeededBatch &slab, const PairContext *pair)
{
    obs::TraceSpan span("stage.finish", "stage");
    obs::PerfScope perf(stageProfiles().finish);
    Stopwatch watch;
    watch.start();
    // Pair finalization: rescue, the proper verdict and the SAM pair
    // bookkeeping, before the records leave the slab in input order.
    for (size_t i = 0; pair != nullptr && i + 1 < slab.n_items; i += 2) {
        // Rescue only ever tries to place a lost mate, and its
        // extensions are that mate's whether or not it is placed.
        const size_t lost = ctx.records[i].mapped() ? 1 : 0;
        const PairOutcome po =
            finalizePair(ctx.records[i], ctx.records[i + 1],
                         slab.items[i].read, slab.items[i + 1].read,
                         *ctx.engine, *pair);
        for (size_t m = 0; ctx.ledger_on && m < 2; ++m) {
            const int ri = ctx.rec_of_item[i + m];
            if (ri < 0)
                continue;
            obs::ReadRecord &rec = ctx.ledger_recs[static_cast<size_t>(ri)];
            rec.paired = true;
            rec.proper = po.proper;
            rec.pair_rescued = m == 0 ? po.rescued_first : po.rescued_second;
            if (m == lost)
                rec.rescue_extensions += po.rescue_extensions;
            // Rescue can replace the record outright.
            rec.score = ctx.records[i + m].score;
            rec.mapped = ctx.records[i + m].mapped();
        }
    }
    if (ctx.ledger_on) {
        for (obs::ReadRecord &rec : ctx.ledger_recs)
            obs::Ledger::global().publish(std::move(rec));
    }
    watch.stop();
    stageMetrics().finish.observe(watch.seconds());
    if (ctx.stats != nullptr)
        ctx.stats->times.other += watch.seconds();
}

size_t
alignInline(const AlignStage &stage, StageCtx &ctx, const ReadSource &source,
            size_t batch_size, const PairContext *pair, const SamSink &sink,
            uint64_t first_read_index)
{
    batch_size = std::max<size_t>(1, batch_size);
    if (pair != nullptr)
        batch_size += batch_size & 1;
    SeededBatch slab;
    slab.prepare(batch_size);
    std::vector<std::pair<std::string, Sequence>> pulled(batch_size);
    size_t total = 0;
    while (const size_t n = source(pulled, batch_size)) {
        loadSlab(slab, pulled, n, first_read_index + total);
        seedSlab(stage, ctx, slab);
        extendSlab(stage, ctx, slab);
        finishSlab(ctx, slab, pair);
        for (size_t i = 0; i < n; ++i)
            sink(total + i, std::move(ctx.records[i]));
        total += n;
    }
    return total;
}

} // namespace seedex
