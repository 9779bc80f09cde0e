#include "aligner/seeding.h"

#include <algorithm>
#include <cstdlib>

#include "obs/metrics.h"

namespace seedex {

namespace {

/** Cached instrument references (registry lookup happens once). */
struct SeedMetrics
{
    obs::Counter &occ_calls;
    obs::Counter &kmer_hits;
    obs::Counter &text_steps;
    obs::Gauge &batch_size;
    obs::LatencyHistogram &batch_seconds;

    static SeedMetrics &
    get()
    {
        static SeedMetrics m{
            obs::MetricsRegistry::global().counter("seed.occ_calls"),
            obs::MetricsRegistry::global().counter("seed.kmer_hits"),
            obs::MetricsRegistry::global().counter("seed.text_steps"),
            obs::MetricsRegistry::global().gauge("seed.batch_size"),
            obs::MetricsRegistry::global().histogram("seed.batch.seconds"),
        };
        return m;
    }
};

/**
 * Flushes the thread-local FmdIndex query counters accumulated inside a
 * scope to the global registry as deltas, so the occ hot path never
 * touches an atomic.
 */
class CounterFlush
{
  public:
    CounterFlush() : before_(FmdIndex::threadCounters()) {}

    ~CounterFlush()
    {
        const FmdThreadCounters &now = FmdIndex::threadCounters();
        SeedMetrics &m = SeedMetrics::get();
        m.occ_calls.inc(now.occ_calls - before_.occ_calls);
        m.kmer_hits.inc(now.kmer_hits - before_.kmer_hits);
        m.text_steps.inc(now.text_steps - before_.text_steps);
    }

  private:
    FmdThreadCounters before_;
};

/** Materialize one read's SMEMs into oriented, sorted seeds. */
void
smemsToSeeds(const FmdIndex &index, const std::vector<Smem> &smems,
             int read_len, const SeedingParams &params,
             std::vector<FmdHit> &hits, std::vector<Seed> &seeds)
{
    for (const Smem &smem : smems) {
        if (smem.interval.s > params.max_occurrences)
            continue; // repeat-masked, as BWA skips high-frequency seeds
        hits.clear();
        const size_t len = static_cast<size_t>(smem.length());
        if (!smem.located())
            index.locateInto(smem.interval, params.max_hits, len, hits);
        else if (params.max_hits > 0)
            hits.push_back(index.hitAt(smem.text_pos, len));
        for (const FmdHit &hit : hits) {
            Seed seed;
            seed.len = smem.length();
            seed.rbeg = hit.pos;
            seed.reverse = hit.reverse;
            seed.occurrences = smem.interval.s;
            // Orient the query span: reverse-strand hits are spans of
            // revcomp(read).
            seed.qbeg = hit.reverse ? read_len - smem.qend : smem.qbeg;
            seeds.push_back(seed);
        }
    }
    std::sort(seeds.begin(), seeds.end(), [](const Seed &a, const Seed &b) {
        if (a.reverse != b.reverse)
            return !a.reverse;
        if (a.rbeg != b.rbeg)
            return a.rbeg < b.rbeg;
        return a.qbeg < b.qbeg;
    });
}

} // namespace

SeedWorkspace &
SeedWorkspace::tls()
{
    thread_local SeedWorkspace ws;
    return ws;
}

size_t
seedBatchSize()
{
    static const size_t cached = [] {
        const char *env = std::getenv("SEEDEX_SEED_BATCH");
        if (env == nullptr || *env == '\0')
            return size_t{16};
        const long v = std::atol(env);
        return static_cast<size_t>(std::clamp(v, 1L, 256L));
    }();
    return cached;
}

void
collectSeedsInto(const FmdIndex &index, const Sequence &read,
                 const SeedingParams &params, SeedWorkspace &ws,
                 std::vector<Seed> &seeds)
{
    seeds.clear();
    CounterFlush flush;
    obs::ScopedLatency timer(SeedMetrics::get().batch_seconds);
    collectSmemsInto(index, read, params.min_seed_len, 1, ws.smem,
                     ws.smems);
    smemsToSeeds(index, ws.smems, static_cast<int>(read.size()), params,
                 ws.hits, seeds);
}

std::vector<Seed>
collectSeeds(const FmdIndex &index, const Sequence &read,
             const SeedingParams &params)
{
    std::vector<Seed> seeds;
    collectSeedsInto(index, read, params, SeedWorkspace::tls(), seeds);
    return seeds;
}

void
collectSeedsBatch(const FmdIndex &index, const Sequence *const *reads,
                  size_t n, const SeedingParams &params, SeedWorkspace &ws,
                  std::vector<std::vector<Seed>> &out)
{
    if (n == 0)
        return;
    CounterFlush flush;
    SeedMetrics &m = SeedMetrics::get();
    m.batch_size.set(static_cast<int64_t>(n));
    obs::ScopedLatency timer(m.batch_seconds);

    if (ws.smem_batch.size() < n)
        ws.smem_batch.resize(n);
    collectSmemsBatch(index, reads, n, params.min_seed_len, 1, ws.smem,
                      ws.smem_batch);
    for (size_t r = 0; r < n; ++r) {
        out[r].clear();
        smemsToSeeds(index, ws.smem_batch[r],
                     static_cast<int>(reads[r]->size()), params, ws.hits,
                     out[r]);
    }
}

} // namespace seedex
