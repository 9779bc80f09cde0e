#include "aligner/pipeline.h"

#include <algorithm>

#include "align/kernel.h"
#include "obs/ledger.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/perfcounters.h"
#include "obs/trace.h"

namespace seedex {

namespace {

/** Registry instruments for the alignRead stage boundaries (Fig. 17's
 *  per-stage bars, now as live counters/latency percentiles). */
struct AlignerMetrics
{
    obs::Counter &reads =
        obs::MetricsRegistry::global().counter("aligner.reads");
    obs::Counter &unmapped =
        obs::MetricsRegistry::global().counter("aligner.unmapped");
    obs::Counter &extensions =
        obs::MetricsRegistry::global().counter("aligner.extensions");
    obs::LatencyHistogram &seeding =
        obs::MetricsRegistry::global().histogram("aligner.seeding.seconds");
    obs::LatencyHistogram &extension =
        obs::MetricsRegistry::global().histogram(
            "aligner.extension.seconds");
    obs::LatencyHistogram &other =
        obs::MetricsRegistry::global().histogram("aligner.other.seconds");
};

AlignerMetrics &
alignerMetrics()
{
    static AlignerMetrics metrics;
    return metrics;
}

/** Hardware-counter profiles for the alignRead stage boundaries (same
 *  names as the TraceSpans so timeline and IPC line up). */
struct AlignerProfiles
{
    obs::StageProfile &seeding =
        obs::PerfRegistry::global().stage("aligner.seeding");
    obs::StageProfile &extension =
        obs::PerfRegistry::global().stage("aligner.extension");
    obs::StageProfile &postprocess =
        obs::PerfRegistry::global().stage("aligner.postprocess");
};

AlignerProfiles &
alignerProfiles()
{
    static AlignerProfiles profiles;
    return profiles;
}

std::unique_ptr<ExtensionEngine>
makeEngine(const PipelineConfig &config)
{
    switch (config.engine) {
      case EngineKind::FullBand:
        return std::make_unique<FullBandEngine>(config.extension.scoring,
                                                config.extension.end_bonus);
      case EngineKind::Banded:
        return std::make_unique<BandedEngine>(config.band,
                                              config.extension.scoring,
                                              config.extension.end_bonus,
                                              config.seedex.zdrop);
      case EngineKind::SeedEx: {
        SeedExConfig sx = config.seedex;
        sx.band = config.band;
        sx.scoring = config.extension.scoring;
        return std::make_unique<SeedExEngine>(sx);
      }
    }
    return nullptr;
}

} // namespace

SamRecord
bestChainRecord(const std::string &name, const Sequence &read,
                std::span<const ChainSlot> slots, const Sequence &reference,
                const PipelineConfig &config, size_t &chosen)
{
    chosen = 0;
    int sub = 0;
    for (size_t i = 1; i < slots.size(); ++i) {
        if (slots[i].aln.score > slots[chosen].aln.score) {
            sub = slots[chosen].aln.score;
            chosen = i;
        } else {
            sub = std::max(sub, slots[i].aln.score);
        }
    }
    return buildSamRecord(name, read, slots[chosen].aln, sub, reference,
                          config.extension.scoring, config.contigs);
}

Aligner::Aligner(const Sequence &reference, PipelineConfig config)
    : Aligner(reference, std::move(config), nullptr)
{}

Aligner::Aligner(const Sequence &reference, PipelineConfig config,
                 std::unique_ptr<FmdIndex> index)
    : ref_(reference), config_(std::move(config)),
      index_(index ? std::move(index)
                   : std::make_unique<FmdIndex>(reference)),
      engine_(makeEngine(config_))
{}

SamRecord
Aligner::alignRead(const std::string &name, const Sequence &read,
                   PipelineStats *stats,
                   std::vector<ExtensionJob> *capture)
{
    Stopwatch seed_watch;
    seed_watch.start();
    const std::vector<Seed> seeds =
        collectSeeds(*index_, read, config_.seeding);
    seed_watch.stop();
    return alignSeeded(name, read, seeds, seed_watch.seconds(), stats,
                       capture);
}

SamRecord
Aligner::alignSeeded(const std::string &name, const Sequence &read,
                     const std::vector<Seed> &seeds, double seed_seconds,
                     PipelineStats *stats,
                     std::vector<ExtensionJob> *capture)
{
    Stopwatch seeding_watch, extension_watch, other_watch;
    uint64_t read_extensions = 0;

    // Provenance ledger: one record per read when enabled; lower layers
    // (filter funnel, extend kernel) attribute onto it via the open
    // thread-local scope.
    obs::ReadScope ledger_scope(name);
    if (obs::ReadRecord *rec = ledger_scope.record()) {
        rec->seeds = static_cast<uint32_t>(seeds.size());
        rec->band =
            config_.engine == EngineKind::FullBand ? -1 : config_.band;
        rec->kernel = kernelIsaName(kernelDispatch());
    }

    // --- Chaining (charged to the "seeding" bar of Fig. 17 together
    //     with the SMEM/locate time handed in by the caller). Chain
    //     storage is recycled per thread: steady state allocates nothing.
    thread_local std::vector<Chain> chains;
    size_t n_chains = 0;
    {
        obs::TraceSpan span("aligner.seeding", "aligner");
        obs::PerfScope perf(alignerProfiles().seeding);
        seeding_watch.start();
        n_chains = chainSeedsInto(seeds, config_.chaining,
                                  ChainWorkspace::tls(), chains);
        seeding_watch.stop();
    }

    SamRecord rec;
    int chain_chosen = -1;
    if (n_chains == 0) {
        other_watch.start();
        rec = unmappedRecord(name, read);
        other_watch.stop();
    } else {
        // --- Seed extension through the configured engine, chain by
        //     chain: the submission order the captured jobs replay in.
        obs::TraceSpan span("aligner.extension", "aligner");
        obs::PerfScope perf(alignerProfiles().extension);
        extension_watch.start();
        thread_local Sequence rc;
        thread_local std::vector<ChainSlot> slots;
        thread_local ExtensionBatch batch;
        read.reverseComplementInto(rc);
        slots.resize(n_chains);
        const ExtensionSubmit submit = [this, capture](ExtensionBatch &b) {
            if (capture != nullptr)
                capture->insert(capture->end(), b.jobs.begin(),
                                b.jobs.end());
            submitToEngine(*engine_, b);
        };
        const uint64_t calls_before = engine_->calls();
        for (size_t c = 0; c < n_chains; ++c) {
            slots[c].chain = &chains[c];
            slots[c].read = chains[c].reverse ? &rc : &read;
            extendChains({&slots[c], 1}, ref_, config_.extension, batch,
                         submit);
        }
        extension_watch.stop();
        read_extensions = engine_->calls() - calls_before;

        // --- Pick best + runner-up, traceback, SAM.
        obs::TraceSpan other_span("aligner.postprocess", "aligner");
        obs::PerfScope other_perf(alignerProfiles().postprocess);
        other_watch.start();
        size_t best = 0;
        rec = bestChainRecord(name, read, {slots.data(), n_chains}, ref_,
                              config_, best);
        chain_chosen = static_cast<int>(best);
        other_watch.stop();

        if (stats)
            stats->extensions += read_extensions;
    }

    if (obs::ReadRecord *ledger_rec = ledger_scope.record()) {
        ledger_rec->chains = static_cast<uint32_t>(n_chains);
        ledger_rec->chain_chosen = chain_chosen;
        ledger_rec->extensions = static_cast<uint32_t>(read_extensions);
        ledger_rec->score = rec.score;
        ledger_rec->mapped = rec.mapped();
    }

    const double seeding_seconds = seed_seconds + seeding_watch.seconds();
    if (stats) {
        ++stats->reads;
        stats->unmapped += !rec.mapped();
        stats->times.seeding += seeding_seconds;
        stats->times.extension += extension_watch.seconds();
        stats->times.other += other_watch.seconds();
        if (auto *sx = dynamic_cast<SeedExEngine *>(engine_.get()))
            stats->filter = sx->stats();
    }

    AlignerMetrics &m = alignerMetrics();
    m.reads.inc();
    if (!rec.mapped())
        m.unmapped.inc();
    if (read_extensions)
        m.extensions.inc(read_extensions);
    m.seeding.observe(seeding_seconds);
    if (n_chains != 0)
        m.extension.observe(extension_watch.seconds());
    m.other.observe(other_watch.seconds());
    SEEDEX_LOG(Trace, "aligner",
               "read %s: %zu chains, %llu extensions, mapped=%d",
               name.c_str(), n_chains,
               static_cast<unsigned long long>(read_extensions),
               rec.mapped() ? 1 : 0);
    return rec;
}

std::vector<SamRecord>
Aligner::alignBatch(
    const std::vector<std::pair<std::string, Sequence>> &reads,
    PipelineStats *stats, std::vector<ExtensionJob> *capture)
{
    std::vector<SamRecord> records;
    records.reserve(reads.size());
    const size_t batch = seedBatchSize();
    if (batch <= 1) {
        for (const auto &[name, seq] : reads)
            records.push_back(alignRead(name, seq, stats, capture));
        return records;
    }

    SeedWorkspace &ws = SeedWorkspace::tls();
    std::vector<const Sequence *> queries(batch);
    std::vector<std::vector<Seed>> seeds(batch);
    for (size_t base = 0; base < reads.size(); base += batch) {
        const size_t n = std::min(batch, reads.size() - base);
        for (size_t r = 0; r < n; ++r)
            queries[r] = &reads[base + r].second;
        Stopwatch seed_watch;
        seed_watch.start();
        collectSeedsBatch(*index_, queries.data(), n, config_.seeding, ws,
                          seeds);
        seed_watch.stop();
        const double per_read = seed_watch.seconds() / n;
        for (size_t r = 0; r < n; ++r)
            records.push_back(alignSeeded(reads[base + r].first,
                                          reads[base + r].second, seeds[r],
                                          per_read, stats, capture));
    }
    return records;
}

} // namespace seedex
