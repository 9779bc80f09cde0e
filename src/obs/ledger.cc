#include "obs/ledger.h"

#include <algorithm>

#include "obs/json.h"

namespace seedex::obs {

namespace {

/** Upper bounds of the band-width histogram buckets (plus +inf). */
constexpr int kBandBuckets[] = {0, 1, 2, 4, 8, 16, 32, 64};

/** The record an ActiveRecord attached on this thread. */
thread_local ReadRecord *t_active = nullptr;

} // namespace

const char *
ledgerVerdictName(LedgerVerdict v)
{
    switch (v) {
      case LedgerVerdict::PassS2: return "pass_s2";
      case LedgerVerdict::PassChecks: return "pass_checks";
      case LedgerVerdict::FailS1: return "fail_s1";
      case LedgerVerdict::FailEScore: return "fail_e_score";
      case LedgerVerdict::FailEditCheck: return "fail_edit_check";
      case LedgerVerdict::FailGscoreGuard: return "fail_gscore_guard";
    }
    return "unknown";
}

uint64_t
LedgerSummary::verdictTotal() const
{
    uint64_t total = 0;
    for (const uint64_t v : verdicts)
        total += v;
    return total;
}

double
LedgerSummary::fallbackRate() const
{
    return extensions == 0
        ? 0.0
        : static_cast<double>(reruns) / static_cast<double>(extensions);
}

Ledger &
Ledger::global()
{
    static Ledger ledger;
    return ledger;
}

void
Ledger::enable(uint32_t sample_every)
{
    sample_every_.store(std::max<uint32_t>(1, sample_every),
                        std::memory_order_relaxed);
    enabled_.store(true, std::memory_order_relaxed);
}

void
Ledger::disable()
{
    enabled_.store(false, std::memory_order_relaxed);
}

ReadRecord *
Ledger::active()
{
    return t_active;
}

Ledger::ThreadBuffer &
Ledger::threadBuffer()
{
    thread_local std::shared_ptr<ThreadBuffer> buffer;
    if (!buffer) {
        buffer = std::make_shared<ThreadBuffer>();
        std::lock_guard<std::mutex> lock(mutex_);
        buffers_.push_back(buffer);
    }
    return *buffer;
}

void
Ledger::publish(ReadRecord rec)
{
    threadBuffer().records.push_back(std::move(rec));
}

void
Ledger::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &buffer : buffers_)
        buffer->records.clear();
}

size_t
Ledger::recordCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    size_t n = 0;
    for (const auto &buffer : buffers_)
        n += buffer->records.size();
    return n;
}

std::vector<ReadRecord>
Ledger::collect() const
{
    std::vector<ReadRecord> all;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const auto &buffer : buffers_)
            all.insert(all.end(), buffer->records.begin(),
                       buffer->records.end());
    }
    std::sort(all.begin(), all.end(),
              [](const ReadRecord &a, const ReadRecord &b) {
                  return a.read_index < b.read_index;
              });
    return all;
}

LedgerSummary
Ledger::summary() const
{
    LedgerSummary s;
    s.sample_every = sampleEvery();
    constexpr size_t n_buckets = std::size(kBandBuckets);
    std::array<uint64_t, n_buckets + 1> band_counts{};

    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &buffer : buffers_) {
        for (const ReadRecord &r : buffer->records) {
            ++s.records;
            s.mapped += r.mapped ? 1 : 0;
            s.extensions += r.extensions;
            s.kernel_calls += r.kernel_calls;
            for (size_t v = 0; v < r.verdicts.size(); ++v)
                s.verdicts[v] += r.verdicts[v];
            s.edit_machine_runs += r.edit_machine_runs;
            s.reruns += r.reruns;
            s.zdrops += r.zdrops;
            s.band_clips += r.band_clips;
            s.global_fills += r.global_fills;
            s.global_reruns += r.global_reruns;
            size_t b = 0;
            while (b < n_buckets && r.band_used > kBandBuckets[b])
                ++b;
            ++band_counts[b];
        }
    }
    for (size_t b = 0; b < n_buckets; ++b)
        s.band_used.push_back({kBandBuckets[b], band_counts[b]});
    s.band_used.push_back({-1, band_counts[n_buckets]});
    return s;
}

std::string
Ledger::toJsonl() const
{
    std::string out;
    for (const ReadRecord &r : collect()) {
        JsonWriter w;
        w.beginObject();
        w.kv("read", r.read_index);
        w.kv("name", r.name);
        w.kv("seeds", static_cast<uint64_t>(r.seeds));
        w.kv("chains", static_cast<uint64_t>(r.chains));
        w.kv("chain", static_cast<int64_t>(r.chain_chosen));
        w.kv("band", static_cast<int64_t>(r.band));
        w.kv("band_used", static_cast<int64_t>(r.band_used));
        w.kv("kernel_calls", static_cast<uint64_t>(r.kernel_calls));
        w.kv("extensions", static_cast<uint64_t>(r.extensions));
        w.key("verdicts").beginObject();
        for (size_t v = 0; v < r.verdicts.size(); ++v)
            w.kv(ledgerVerdictName(static_cast<LedgerVerdict>(v)),
                 static_cast<uint64_t>(r.verdicts[v]));
        w.endObject();
        w.kv("edit_machine_runs",
             static_cast<uint64_t>(r.edit_machine_runs));
        w.kv("reruns", static_cast<uint64_t>(r.reruns));
        w.kv("zdrops", static_cast<uint64_t>(r.zdrops));
        w.kv("band_clips", static_cast<uint64_t>(r.band_clips));
        w.kv("global_fills", static_cast<uint64_t>(r.global_fills));
        w.kv("global_reruns", static_cast<uint64_t>(r.global_reruns));
        w.kv("score", static_cast<int64_t>(r.score));
        w.kv("mapped", r.mapped);
        w.kv("paired", r.paired);
        w.kv("proper", r.proper);
        w.kv("pair_rescued", r.pair_rescued);
        w.kv("rescue_extensions",
             static_cast<uint64_t>(r.rescue_extensions));
        w.kv("kernel", r.kernel);
        w.endObject();
        out += w.str();
        out += '\n';
    }
    return out;
}

bool
Ledger::writeJsonl(const std::string &path) const
{
    return writeTextFile(path, toJsonl());
}

ActiveRecord::ActiveRecord(ReadRecord *rec) : saved_(t_active)
{
    t_active = rec;
}

ActiveRecord::~ActiveRecord()
{
    t_active = saved_;
}

} // namespace seedex::obs
