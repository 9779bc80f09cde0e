#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <thread>
#include <vector>

#include "obs/json.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/perfcounters.h"
#include "obs/report.h"
#include "obs/trace.h"

namespace seedex::obs {
namespace {

// --------------------------------------------------------------- Registry

TEST(MetricsRegistry, CountersSurviveConcurrentHammering)
{
    MetricsRegistry &reg = MetricsRegistry::global();
    reg.reset();
    constexpr int kThreads = 8;
    constexpr int kIncsPerThread = 20000;

    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([&reg] {
            // Lookup inside the thread: exercises concurrent
            // find-or-create against the same name.
            Counter &c = reg.counter("test.hammer");
            LatencyHistogram &h = reg.histogram("test.hammer.seconds");
            for (int i = 0; i < kIncsPerThread; ++i) {
                c.inc();
                h.observe(1e-4);
            }
        });
    }
    for (std::thread &t : workers)
        t.join();

    EXPECT_EQ(reg.counter("test.hammer").value(),
              static_cast<uint64_t>(kThreads) * kIncsPerThread);
    EXPECT_EQ(reg.histogram("test.hammer.seconds").count(),
              static_cast<uint64_t>(kThreads) * kIncsPerThread);
}

TEST(MetricsRegistry, ResetZeroesButKeepsHandlesValid)
{
    MetricsRegistry &reg = MetricsRegistry::global();
    Counter &c = reg.counter("test.reset_handle");
    c.inc(7);
    reg.reset();
    EXPECT_EQ(c.value(), 0u);
    c.inc(3); // the cached reference must still hit the same instrument
    EXPECT_EQ(reg.counter("test.reset_handle").value(), 3u);
}

TEST(Gauge, TracksValueAndHighWaterMark)
{
    Gauge g;
    g.set(4);
    g.set(9);
    g.set(2);
    EXPECT_EQ(g.value(), 2);
    EXPECT_EQ(g.maxValue(), 9);
    g.add(10);
    EXPECT_EQ(g.value(), 12);
    EXPECT_EQ(g.maxValue(), 12);
}

// -------------------------------------------------------------- Histogram

TEST(LatencyHistogram, EmptyIsSafe)
{
    LatencyHistogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    const HistogramSummary s = h.summary();
    EXPECT_EQ(s.count, 0u);
    EXPECT_DOUBLE_EQ(s.p99, 0.0);
}

TEST(LatencyHistogram, PercentilesLandInTheRightBucket)
{
    LatencyHistogram h;
    // 90 fast observations, 10 slow: p50 near 1 ms, p99 near 1 s.
    for (int i = 0; i < 90; ++i)
        h.observe(1e-3);
    for (int i = 0; i < 10; ++i)
        h.observe(1.0);
    // Log buckets at 5/decade are ~58% wide; allow one bucket of slack.
    EXPECT_NEAR(std::log10(h.percentile(0.50)), -3.0, 0.25);
    EXPECT_NEAR(std::log10(h.percentile(0.99)), 0.0, 0.25);
    EXPECT_NEAR(h.mean(), (90 * 1e-3 + 10 * 1.0) / 100.0, 1e-6);
    const HistogramSummary s = h.summary();
    EXPECT_EQ(s.count, 100u);
    EXPECT_NEAR(s.min, 1e-3, 1e-6);
    EXPECT_NEAR(s.max, 1.0, 1e-6);
}

TEST(LatencyHistogram, EdgeQuantilesAndOutOfRangeValues)
{
    LatencyHistogram h;
    h.observe(0.0);    // underflow bucket
    h.observe(-1.0);   // negative clamps to underflow
    h.observe(1e-2);
    h.observe(1e9);    // overflow bucket
    EXPECT_EQ(h.count(), 4u);
    // q=0 clamps to rank 1 (the underflow bucket's floor value).
    EXPECT_DOUBLE_EQ(h.percentile(0.0), LatencyHistogram::kMinValue);
    // q=1 lands in the overflow bucket: reported as its lower bound,
    // never infinity.
    EXPECT_GT(h.percentile(1.0), 1.0);
    EXPECT_TRUE(std::isfinite(h.percentile(1.0)));
    // q beyond [0,1] clamps instead of reading past the buckets.
    EXPECT_DOUBLE_EQ(h.percentile(2.0), h.percentile(1.0));
    EXPECT_DOUBLE_EQ(h.percentile(-0.5), h.percentile(0.0));
}

TEST(LatencyHistogram, SingleObservationIsEveryPercentile)
{
    LatencyHistogram h;
    h.observe(3e-3);
    for (const double q : {0.0, 0.5, 0.9, 0.99, 1.0})
        EXPECT_NEAR(std::log10(h.percentile(q)), std::log10(3e-3), 0.15)
            << "q=" << q;
}

// ------------------------------------------------------------------- JSON

TEST(Json, WriterRoundTripsThroughParser)
{
    JsonWriter w;
    w.beginObject();
    w.kv("name", "line\nwith \"quotes\" and \\slashes");
    w.kv("count", static_cast<uint64_t>(42));
    w.kv("ratio", 0.25);
    w.kv("flag", true);
    w.key("list").beginArray().value(1).value(2).value(3).endArray();
    w.key("nested").beginObject().kv("x", -1).endObject();
    w.endObject();

    JsonValue v;
    std::string err;
    ASSERT_TRUE(JsonValue::parse(w.str(), v, &err)) << err;
    ASSERT_EQ(v.kind, JsonValue::Kind::Object);
    EXPECT_EQ(v.find("name")->string,
              "line\nwith \"quotes\" and \\slashes");
    EXPECT_DOUBLE_EQ(v.find("count")->number, 42.0);
    EXPECT_DOUBLE_EQ(v.find("ratio")->number, 0.25);
    EXPECT_TRUE(v.find("flag")->boolean);
    ASSERT_EQ(v.find("list")->array.size(), 3u);
    EXPECT_DOUBLE_EQ(v.find("list")->array[2].number, 3.0);
    EXPECT_DOUBLE_EQ(v.find("nested")->find("x")->number, -1.0);
}

TEST(Json, DoublesRoundTripExactly)
{
    // Round-trippable serialization: strtod(output) must recover the
    // exact bits for values %.15g truncates (1/3, 0.1 + 0.2, 1e-7 * 7).
    const double values[] = {0.0,
                             0.1,
                             1.0 / 3.0,
                             0.1 + 0.2,
                             7e-7,
                             3.141592653589793,
                             -2.2250738585072014e-308,
                             1.7976931348623157e308,
                             123456789.123456789};
    for (const double d : values) {
        JsonWriter w;
        w.beginObject();
        w.kv("v", d);
        w.endObject();
        JsonValue v;
        std::string err;
        ASSERT_TRUE(JsonValue::parse(w.str(), v, &err)) << err;
        EXPECT_EQ(v.find("v")->number, d)
            << "serialized as " << w.str();
    }
}

TEST(Json, NonFiniteDoublesBecomeNull)
{
    JsonWriter w;
    w.beginObject();
    w.kv("nan", std::nan(""));
    w.kv("inf", HUGE_VAL);
    w.kv("ninf", -HUGE_VAL);
    w.endObject();
    EXPECT_EQ(w.str(), "{\"nan\":null,\"inf\":null,\"ninf\":null}");

    JsonValue v;
    std::string err;
    ASSERT_TRUE(JsonValue::parse(w.str(), v, &err)) << err;
    EXPECT_EQ(v.find("nan")->kind, JsonValue::Kind::Null);
    EXPECT_EQ(v.find("inf")->kind, JsonValue::Kind::Null);
    EXPECT_EQ(v.find("ninf")->kind, JsonValue::Kind::Null);
}

TEST(Json, ParserRejectsMalformedInput)
{
    JsonValue v;
    EXPECT_FALSE(JsonValue::parse("{\"a\": }", v));
    EXPECT_FALSE(JsonValue::parse("[1, 2", v));
    EXPECT_FALSE(JsonValue::parse("{} trailing", v));
    EXPECT_FALSE(JsonValue::parse("", v));
}

TEST(RunReport, ProducesSchemaTaggedDocument)
{
    MetricsRegistry::global().reset();
    MetricsRegistry::global().counter("test.report.counter").inc(5);
    MetricsRegistry::global().histogram("test.report.seconds").observe(
        1e-3);

    RunReport report("test_bench");
    report.section("custom", [](JsonWriter &w) { w.kv("answer", 42); });
    report.addMetrics(MetricsRegistry::global().snapshot());
    const std::string json = report.finish();

    JsonValue v;
    std::string err;
    ASSERT_TRUE(JsonValue::parse(json, v, &err)) << err;
    EXPECT_EQ(v.find("schema")->string, kRunReportSchema);
    EXPECT_EQ(v.find("bench")->string, "test_bench");
    EXPECT_DOUBLE_EQ(v.find("custom")->find("answer")->number, 42.0);
    const JsonValue *counters = v.find("metrics")->find("counters");
    ASSERT_NE(counters, nullptr);
    EXPECT_DOUBLE_EQ(counters->find("test.report.counter")->number, 5.0);
    const JsonValue *hist =
        v.find("metrics")->find("histograms")->find("test.report.seconds");
    ASSERT_NE(hist, nullptr);
    EXPECT_DOUBLE_EQ(hist->find("count")->number, 1.0);
    EXPECT_GT(hist->find("p50")->number, 0.0);
}

// ------------------------------------------------------------------ Trace

TEST(Trace, SpansFromTwoThreadsRoundTripThroughParser)
{
    TraceSession &session = TraceSession::global();
    session.clear();
    session.enable();
    {
        TraceSpan span("main.work", "test");
    }
    std::thread worker([] {
        TraceSpan span("worker.work", "test");
        TraceSession::global().counter("worker.depth", 3.0);
    });
    worker.join();
    session.disable();

    const std::string json = session.toJson();
    JsonValue v;
    std::string err;
    ASSERT_TRUE(JsonValue::parse(json, v, &err)) << err;
    const JsonValue *events = v.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_EQ(events->kind, JsonValue::Kind::Array);
    ASSERT_GE(events->array.size(), 3u);

    std::set<int> tids;
    std::set<std::string> names;
    for (const JsonValue &ev : events->array) {
        tids.insert(static_cast<int>(ev.find("tid")->number));
        names.insert(ev.find("name")->string);
        if (ev.find("ph")->string == "X")
            EXPECT_GE(ev.find("dur")->number, 0.0);
        if (ev.find("ph")->string == "C")
            EXPECT_DOUBLE_EQ(ev.find("args")->find("value")->number, 3.0);
    }
    EXPECT_GE(tids.size(), 2u) << "expected spans from two threads";
    EXPECT_TRUE(names.count("main.work"));
    EXPECT_TRUE(names.count("worker.work"));
    EXPECT_TRUE(names.count("worker.depth"));
}

TEST(Trace, DisabledSessionRecordsNothing)
{
    TraceSession &session = TraceSession::global();
    session.clear();
    session.disable();
    {
        TraceSpan span("invisible", "test");
        session.counter("invisible.counter", 1.0);
    }
    EXPECT_EQ(session.eventCount(), 0u);
}

// ----------------------------------------------------------------- Logger

TEST(Logger, LevelFilteringGatesOutput)
{
    Logger &log = Logger::global();
    const LogLevel saved = log.level();

    log.setLevel(LogLevel::Warn);
    EXPECT_TRUE(log.enabled(LogLevel::Error));
    EXPECT_TRUE(log.enabled(LogLevel::Warn));
    EXPECT_FALSE(log.enabled(LogLevel::Info));
    EXPECT_FALSE(log.enabled(LogLevel::Debug));

    log.setLevel(LogLevel::Off);
    EXPECT_FALSE(log.enabled(LogLevel::Error));

    log.setLevel(LogLevel::Trace);
    EXPECT_TRUE(log.enabled(LogLevel::Trace));

    log.setLevel(saved);
}

TEST(Logger, ParsesLevelNames)
{
    EXPECT_EQ(parseLogLevel("error"), LogLevel::Error);
    EXPECT_EQ(parseLogLevel("warn"), LogLevel::Warn);
    EXPECT_EQ(parseLogLevel("info"), LogLevel::Info);
    EXPECT_EQ(parseLogLevel("debug"), LogLevel::Debug);
    EXPECT_EQ(parseLogLevel("trace"), LogLevel::Trace);
    EXPECT_EQ(parseLogLevel("off"), LogLevel::Off);
    EXPECT_EQ(parseLogLevel("3"), LogLevel::Info);
    EXPECT_EQ(parseLogLevel("nonsense"), LogLevel::Off);
}

TEST(Logger, MacroCompilesAndRespectsLevel)
{
    Logger &log = Logger::global();
    const LogLevel saved = log.level();
    log.setLevel(LogLevel::Off);
    // Must not evaluate its arguments when the level is off.
    int evaluations = 0;
    auto touch = [&evaluations] {
        ++evaluations;
        return 1;
    };
    SEEDEX_LOG(Debug, "test", "value %d", touch());
    EXPECT_EQ(evaluations, 0);
    log.setLevel(saved);
}

// ----------------------------------------------------------- PerfCounters

TEST(PerfCounters, DisabledScopeIsANoOp)
{
    // SEEDEX_PERF=off semantics: no counters are read, no deltas fold.
    perfOverrideEnabled(false);
    PerfRegistry::global().reset();
    StageProfile &stage = PerfRegistry::global().stage("test.perf.off");
    {
        PerfScope scope(stage);
        volatile int sink = 0;
        for (int i = 0; i < 1000; ++i)
            sink = sink + i;
        (void)sink;
    }
    EXPECT_EQ(stage.scopes.load(), 0u);
    EXPECT_EQ(stage.cycles.load(), 0u);
    EXPECT_EQ(stage.instructions.load(), 0u);
    perfOverrideEnabled(true);
}

TEST(PerfCounters, ScopeEitherCountsOrFallsBackCleanly)
{
    // perf_event_open may be denied (CI containers, seccomp, non-Linux):
    // either the scope records a plausible delta or it is a clean no-op.
    // Both outcomes are correct; crashing or partial folds are not.
    perfOverrideEnabled(true);
    PerfRegistry::global().reset();
    StageProfile &stage = PerfRegistry::global().stage("test.perf.live");
    {
        PerfScope scope(stage);
        // Unsigned: the sum of 0..99,999 overflows int.
        volatile unsigned sink = 0;
        for (int i = 0; i < 100000; ++i)
            sink = sink + i;
        (void)sink;
    }
    if (PerfThreadCounters::tls().available()) {
        EXPECT_TRUE(PerfRegistry::global().anyAvailable());
        EXPECT_EQ(stage.scopes.load(), 1u);
        EXPECT_GT(stage.cycles.load(), 0u);
        // A 100k-iteration loop executes at least that many
        // instructions.
        EXPECT_GT(stage.instructions.load(), 100000u);
    } else {
        EXPECT_EQ(stage.scopes.load(), 0u);
        EXPECT_EQ(stage.cycles.load(), 0u);
    }
}

TEST(PerfCounters, SummariesDeriveRatesSafely)
{
    StageProfileSummary s;
    s.name = "empty";
    EXPECT_DOUBLE_EQ(s.ipc(), 0.0);
    EXPECT_DOUBLE_EQ(s.branchMissesPerKiloInstr(), 0.0);
    EXPECT_DOUBLE_EQ(s.llcMissesPerKiloInstr(), 0.0);

    s.cycles = 1000;
    s.instructions = 2500;
    s.branch_misses = 5;
    s.llc_misses = 2;
    EXPECT_DOUBLE_EQ(s.ipc(), 2.5);
    EXPECT_DOUBLE_EQ(s.branchMissesPerKiloInstr(), 2.0);
    EXPECT_DOUBLE_EQ(s.llcMissesPerKiloInstr(), 0.8);
}

TEST(PerfRegistry, ResetKeepsStageReferencesValid)
{
    PerfRegistry &reg = PerfRegistry::global();
    StageProfile &stage = reg.stage("test.perf.reset");
    stage.scopes.fetch_add(3);
    stage.cycles.fetch_add(42);
    reg.reset();
    EXPECT_EQ(stage.scopes.load(), 0u);
    EXPECT_EQ(stage.cycles.load(), 0u);
    stage.cycles.fetch_add(7);
    bool found = false;
    for (const StageProfileSummary &s : reg.snapshot()) {
        if (s.name == "test.perf.reset") {
            found = true;
            EXPECT_EQ(s.cycles, 7u);
        }
    }
    EXPECT_TRUE(found);
}

} // namespace
} // namespace seedex::obs
