#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "src/eval/evaluator.h"
#include "src/obs/context.h"
#include "src/obs/event_log.h"
#include "src/obs/export.h"
#include "src/obs/json.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/sqo/optimizer.h"
#include "src/workload/programs.h"

namespace sqod {
namespace {

// ---------------------------------------------------------------- tracer

TEST(TracerTest, DisabledTracerIsInert) {
  Tracer tracer;  // disabled by default
  EXPECT_FALSE(tracer.enabled());
  {
    Span span = tracer.StartSpan("root");
    EXPECT_FALSE(span.active());
    span.SetAttr("k", 1);  // all no-ops
    Span child = tracer.StartSpan("child");
    EXPECT_FALSE(child.active());
  }
  EXPECT_TRUE(tracer.spans().empty());
}

TEST(TracerTest, RecordsNestingAndOrdering) {
  Tracer tracer(true);
  {
    Span root = tracer.StartSpan("root");
    {
      Span a = tracer.StartSpan("a");
      Span a1 = tracer.StartSpan("a1");
    }
    Span b = tracer.StartSpan("b");
    b.SetAttr("items", 7);
  }
  const auto& spans = tracer.spans();
  ASSERT_EQ(spans.size(), 4u);

  // Closing order: a1, a, b, root. Ids are start-ordered.
  EXPECT_EQ(spans[0].name, "a1");
  EXPECT_EQ(spans[1].name, "a");
  EXPECT_EQ(spans[2].name, "b");
  EXPECT_EQ(spans[3].name, "root");

  std::map<std::string, const SpanRecord*> by_name;
  for (const SpanRecord& s : spans) by_name[s.name] = &s;
  EXPECT_EQ(by_name["root"]->parent_id, -1);
  EXPECT_EQ(by_name["a"]->parent_id, by_name["root"]->id);
  EXPECT_EQ(by_name["a1"]->parent_id, by_name["a"]->id);
  EXPECT_EQ(by_name["b"]->parent_id, by_name["root"]->id);

  // Start order by id: root < a < a1 < b.
  EXPECT_LT(by_name["root"]->id, by_name["a"]->id);
  EXPECT_LT(by_name["a"]->id, by_name["a1"]->id);
  EXPECT_LT(by_name["a1"]->id, by_name["b"]->id);

  ASSERT_EQ(by_name["b"]->attrs.size(), 1u);
  EXPECT_EQ(by_name["b"]->attrs[0].first, "items");
  EXPECT_EQ(by_name["b"]->attrs[0].second, 7);

  // Durations are sane: children fit inside their parent.
  EXPECT_GE(by_name["root"]->duration_ns, by_name["a"]->duration_ns);
  EXPECT_GE(by_name["a"]->duration_ns, by_name["a1"]->duration_ns);
}

TEST(TracerTest, SiblingsAfterReuseKeepDistinctIds) {
  Tracer tracer(true);
  { Span a = tracer.StartSpan("first"); }
  { Span b = tracer.StartSpan("second"); }
  ASSERT_EQ(tracer.spans().size(), 2u);
  EXPECT_NE(tracer.spans()[0].id, tracer.spans()[1].id);
  EXPECT_EQ(tracer.spans()[0].parent_id, -1);
  EXPECT_EQ(tracer.spans()[1].parent_id, -1);
}

TEST(TracerTest, ExplicitEndIsIdempotent) {
  Tracer tracer(true);
  Span span = tracer.StartSpan("s");
  span.End();
  span.End();  // no-op
  EXPECT_EQ(tracer.spans().size(), 1u);
}

TEST(TracerTest, StartSpanAtBackdatesTheStart) {
  Tracer tracer(true);
  const int64_t before = NowNs() - 5'000'000;  // 5 ms in the past
  { Span span = tracer.StartSpanAt("queue", before); }
  ASSERT_EQ(tracer.spans().size(), 1u);
  const SpanRecord& record = tracer.spans()[0];
  EXPECT_EQ(record.start_ns, before);
  // The span covers the backdated interval, not just the open/close gap.
  EXPECT_GE(record.duration_ns, 5'000'000);
}

TEST(TracerTest, TakeSpansDrainsAndResets) {
  Tracer tracer(true);
  { Span span = tracer.StartSpan("first"); }
  std::vector<SpanRecord> taken = tracer.TakeSpans();
  ASSERT_EQ(taken.size(), 1u);
  EXPECT_EQ(taken[0].name, "first");
  EXPECT_TRUE(tracer.spans().empty());
  // Ids restart, so per-request traces are self-contained.
  { Span span = tracer.StartSpan("second"); }
  EXPECT_EQ(tracer.spans()[0].id, taken[0].id);
}

TEST(TracerTest, MoveTransfersOwnership) {
  Tracer tracer(true);
  {
    Span outer;
    {
      Span inner = tracer.StartSpan("moved");
      outer = std::move(inner);
    }  // inner destroyed; the span must survive in `outer`
    EXPECT_TRUE(outer.active());
    EXPECT_TRUE(tracer.spans().empty());
  }
  ASSERT_EQ(tracer.spans().size(), 1u);
  EXPECT_EQ(tracer.spans()[0].name, "moved");
}

// --------------------------------------------------------------- metrics

TEST(MetricsTest, CountersAndGauges) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("x/count");
  c->Increment();
  c->Add(9);
  EXPECT_EQ(registry.GetCounter("x/count")->value(), 10);
  EXPECT_EQ(registry.GetCounter("x/count"), c);  // interned

  registry.GetGauge("x/size")->Set(42);
  registry.GetGauge("x/size")->Set(17);  // last write wins
  EXPECT_EQ(registry.GetGauge("x/size")->value(), 17);
}

TEST(MetricsTest, HistogramBasics) {
  Histogram h;
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.Percentile(0.5), 0);
  for (int i = 1; i <= 100; ++i) h.Record(i);
  EXPECT_EQ(h.count(), 100);
  EXPECT_EQ(h.sum(), 5050);
  EXPECT_EQ(h.min(), 1);
  EXPECT_EQ(h.max(), 100);
  EXPECT_DOUBLE_EQ(h.mean(), 50.5);
}

TEST(MetricsTest, HistogramPercentiles) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.Record(i);
  // Power-of-two buckets: estimates land within the containing bucket.
  EXPECT_EQ(h.Percentile(0.0), 1);
  EXPECT_EQ(h.Percentile(1.0), 100);
  int64_t p50 = h.Percentile(0.5);
  EXPECT_GE(p50, 32);  // rank 50 lives in bucket [32, 63]
  EXPECT_LE(p50, 63);
  int64_t p99 = h.Percentile(0.99);
  EXPECT_GE(p99, 64);  // rank 99 lives in bucket [64, 100]
  EXPECT_LE(p99, 100);
  // Monotone in q.
  EXPECT_LE(h.Percentile(0.25), h.Percentile(0.5));
  EXPECT_LE(h.Percentile(0.5), h.Percentile(0.9));
  EXPECT_LE(h.Percentile(0.9), h.Percentile(0.99));
}

TEST(MetricsTest, HistogramSingleValue) {
  Histogram h;
  h.Record(1000);
  EXPECT_EQ(h.Percentile(0.5), 1000);
  EXPECT_EQ(h.min(), 1000);
  EXPECT_EQ(h.max(), 1000);
}

TEST(MetricsTest, SnapshotIsAPointInTimeCopy) {
  MetricsRegistry registry;
  registry.GetCounter("a/count")->Add(3);
  registry.GetGauge("a/size")->Set(11);
  registry.GetHistogram("a/lat")->Record(8);
  MetricsSnapshot snapshot = registry.Snapshot();
  // Later updates don't leak into an already taken snapshot.
  registry.GetCounter("a/count")->Add(100);
  registry.GetHistogram("a/lat")->Record(64);
  EXPECT_EQ(snapshot.counters.at("a/count"), 3);
  EXPECT_EQ(snapshot.gauges.at("a/size"), 11);
  EXPECT_EQ(snapshot.histograms.at("a/lat").count, 1);
  EXPECT_EQ(snapshot.histograms.at("a/lat").max, 8);
  EXPECT_EQ(registry.Snapshot().counters.at("a/count"), 103);
}

TEST(MetricsTest, HistogramTailQuartetOnKnownDistribution) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.Record(i);
  HistogramSnapshot snapshot = h.Snapshot();
  // Power-of-two buckets: each tail estimate lands in its rank's bucket.
  EXPECT_GE(snapshot.p50(), 256);  // rank 500 lives in [256, 511]
  EXPECT_LE(snapshot.p50(), 511);
  EXPECT_GE(snapshot.p95(), 512);  // ranks 950 and 990 live in [512, 1000]
  EXPECT_LE(snapshot.p95(), 1000);
  EXPECT_GE(snapshot.p99(), snapshot.p95());
  EXPECT_LE(snapshot.p99(), 1000);
  EXPECT_EQ(snapshot.max, 1000);
  EXPECT_LE(snapshot.p50(), snapshot.p95());
}

TEST(MetricsTest, DiffSnapshotsIsolatesTheWindow) {
  MetricsRegistry registry;
  registry.GetCounter("svc/requests")->Add(10);
  registry.GetCounter("svc/steady")->Add(3);
  registry.GetGauge("svc/depth")->Set(2);
  registry.GetGauge("svc/stable")->Set(9);
  Histogram* h = registry.GetHistogram("svc/lat");
  h->Record(1);
  h->Record(1000);

  MetricsSnapshot prev = registry.Snapshot();
  registry.GetCounter("svc/requests")->Add(7);
  registry.GetGauge("svc/depth")->Set(5);
  h->Record(40);
  h->Record(48);
  MetricsSnapshot curr = registry.Snapshot();

  MetricsSnapshot diff = DiffSnapshots(prev, curr);
  // Counters: delta only, unchanged ones dropped.
  EXPECT_EQ(diff.counters.at("svc/requests"), 7);
  EXPECT_EQ(diff.counters.count("svc/steady"), 0u);
  // Gauges: current value, unchanged ones dropped.
  EXPECT_EQ(diff.gauges.at("svc/depth"), 5);
  EXPECT_EQ(diff.gauges.count("svc/stable"), 0u);
  // Histograms: the window's samples only.
  const HistogramSnapshot& window = diff.histograms.at("svc/lat");
  EXPECT_EQ(window.count, 2);
  EXPECT_EQ(window.sum, 88);
  // Window extremes are bucket estimates clamped to the real extremes:
  // both samples live in [32, 63].
  EXPECT_GE(window.min, 1);
  EXPECT_LE(window.min, 48);
  EXPECT_GE(window.max, 40);
  EXPECT_LE(window.max, 63);

  // An idle window diffs to empty, so a periodic exporter can skip it.
  EXPECT_TRUE(DiffSnapshots(curr, registry.Snapshot()).empty());
}

// ----------------------------------------------------------- trace ids

TEST(TraceContextTest, TraceIdsAreUniqueNonZeroAndHexRoundTrip) {
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    uint64_t id = NextTraceId();
    ASSERT_NE(id, 0u);
    EXPECT_TRUE(seen.insert(id).second) << "duplicate trace id";
    std::string hex = TraceIdHex(id);
    ASSERT_EQ(hex.size(), 16u);
    for (char c : hex) {
      EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) << hex;
    }
    EXPECT_EQ(TraceIdFromHex(hex), id);
  }
  EXPECT_EQ(TraceIdFromHex(""), 0u);
  EXPECT_EQ(TraceIdFromHex("xyz"), 0u);
  EXPECT_EQ(TraceIdFromHex("0123456789abcde"), 0u);  // 15 digits
}

// ------------------------------------------------------------ event log

TEST(EventLogTest, RingBufferKeepsTheNewestWindow) {
  EventLog log(4);
  for (int i = 0; i < 10; ++i) {
    LogEvent event;
    event.kind = (i % 2 == 0) ? "slow_query" : "error";
    event.request_id = static_cast<uint64_t>(i);
    log.Append(std::move(event));
  }
  EXPECT_EQ(log.total_appended(), 10);
  std::vector<LogEvent> events = log.Events();
  ASSERT_EQ(events.size(), 4u);
  // Oldest-first across the wrap point: 6, 7, 8, 9.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(events[static_cast<size_t>(i)].request_id,
              static_cast<uint64_t>(6 + i));
  }
  std::vector<LogEvent> slow = log.EventsOfKind("slow_query");
  ASSERT_EQ(slow.size(), 2u);
  EXPECT_EQ(slow[0].request_id, 6u);
  EXPECT_EQ(slow[1].request_id, 8u);
}

TEST(EventLogTest, RenderAndJsonCarryTheTraceId) {
  LogEvent event;
  event.kind = "slow_query";
  event.trace_id = 0xabcdef0123456789ull;
  event.message = "sat=yes answers=21";
  event.fields.emplace_back("total_ns", 1234);
  std::string line = RenderLogEvent(event);
  EXPECT_NE(line.find("slow_query"), std::string::npos);
  EXPECT_NE(line.find(TraceIdHex(event.trace_id)), std::string::npos);
  EXPECT_NE(line.find("total_ns=1234"), std::string::npos);
  EXPECT_NE(line.find("sat=yes"), std::string::npos);

  Result<JsonValue> parsed = ParseJson(LogEventToJson(event));
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  EXPECT_EQ(parsed.value().Find("trace_id")->string,
            TraceIdHex(event.trace_id));
  EXPECT_EQ(parsed.value().Find("total_ns")->number, 1234);
}

TEST(MetricsConcurrencyTest, ContendedCounterLosesNoIncrements) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kIncrements = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      // Mix interning lookups with pointer-cached increments: both must
      // be safe from worker threads.
      Counter* counter = registry.GetCounter("svc/requests");
      for (int i = 0; i < kIncrements; ++i) {
        if (i % 256 == 0) counter = registry.GetCounter("svc/requests");
        counter->Increment();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(registry.GetCounter("svc/requests")->value(),
            int64_t{kThreads} * kIncrements);
}

TEST(MetricsConcurrencyTest, LookupInternsOneInstrumentPerName) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  std::vector<Counter*> seen(kThreads, nullptr);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, &seen, t] {
      seen[static_cast<size_t>(t)] = registry.GetCounter("one/name");
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(seen[static_cast<size_t>(t)], seen[0]);
  }
}

TEST(MetricsConcurrencyTest, ConcurrentHistogramRecordsAreExact) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("svc/latency");
  constexpr int kThreads = 8;
  constexpr int kSamples = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([h] {
      for (int i = 1; i <= kSamples; ++i) h->Record(i);
    });
  }
  for (std::thread& thread : threads) thread.join();
  HistogramSnapshot snapshot = h->Snapshot();
  EXPECT_EQ(snapshot.count, int64_t{kThreads} * kSamples);
  EXPECT_EQ(snapshot.sum,
            int64_t{kThreads} * kSamples * (kSamples + 1) / 2);
  EXPECT_EQ(snapshot.min, 1);
  EXPECT_EQ(snapshot.max, kSamples);
}

// -------------------------------------------------------------- exporters

TEST(ExportTest, SpanTreeRendering) {
  Tracer tracer(true);
  {
    Span root = tracer.StartSpan("optimize");
    Span child = tracer.StartSpan("adorn");
    child.SetAttr("apreds", 5);
  }
  std::string tree = RenderSpanTree(tracer.spans());
  // Parent first, child indented, attributes rendered.
  size_t root_pos = tree.find("optimize");
  size_t child_pos = tree.find("  adorn");
  ASSERT_NE(root_pos, std::string::npos);
  ASSERT_NE(child_pos, std::string::npos);
  EXPECT_LT(root_pos, child_pos);
  EXPECT_NE(tree.find("apreds=5"), std::string::npos);
}

TEST(ExportTest, ChromeTraceRoundTripsThroughParser) {
  Tracer tracer(true);
  {
    Span root = tracer.StartSpan("root");
    Span child = tracer.StartSpan("child \"quoted\"\n");
    child.SetAttr("k", -3);
  }
  std::string json = ExportChromeTrace(tracer.spans());
  Result<JsonValue> parsed = ParseJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();

  const JsonValue* events = parsed.value().Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_EQ(events->array.size(), 2u);

  // Events are emitted in start order: root first.
  const JsonValue& root_event = events->array[0];
  EXPECT_EQ(root_event.Find("name")->string, "root");
  EXPECT_EQ(root_event.Find("ph")->string, "X");
  EXPECT_TRUE(root_event.Find("ts")->is_number());
  EXPECT_TRUE(root_event.Find("dur")->is_number());

  const JsonValue& child_event = events->array[1];
  // The escaped name round-trips to the original string.
  EXPECT_EQ(child_event.Find("name")->string, "child \"quoted\"\n");
  EXPECT_EQ(child_event.Find("args")->Find("k")->number, -3);
  // Parent linkage survives: child's args.parent == root's args.id.
  EXPECT_EQ(child_event.Find("args")->Find("parent")->number,
            root_event.Find("args")->Find("id")->number);
  // Nesting invariant Chrome relies on: child's [ts, ts+dur] inside root's.
  EXPECT_GE(child_event.Find("ts")->number, root_event.Find("ts")->number);
  EXPECT_LE(child_event.Find("ts")->number + child_event.Find("dur")->number,
            root_event.Find("ts")->number + root_event.Find("dur")->number +
                1e-3);  // printed at 3 decimals
}

TEST(ExportTest, RequestTraceExportStampsTraceIdAndLanes) {
  std::vector<RequestTrace> traces(2);
  for (int i = 0; i < 2; ++i) {
    Tracer tracer(true);
    {
      Span root = tracer.StartSpan("request");
      Span child = tracer.StartSpan("request.execute");
    }
    traces[static_cast<size_t>(i)].trace_id = NextTraceId();
    traces[static_cast<size_t>(i)].spans = tracer.TakeSpans();
  }

  std::string json = ExportChromeTrace(traces);
  Result<JsonValue> parsed = ParseJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  const JsonValue* events = parsed.value().Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->array.size(), 4u);

  // Each request renders as its own lane (tid), and every event's args
  // carry the request's trace id in the slow-query-log hex rendering.
  std::set<double> tids;
  for (const JsonValue& event : events->array) {
    const JsonValue* tid = event.Find("tid");
    ASSERT_NE(tid, nullptr);
    tids.insert(tid->number);
    const JsonValue* trace_id = event.Find("args")->Find("trace_id");
    ASSERT_NE(trace_id, nullptr);
    ASSERT_TRUE(trace_id->is_string());
    const std::string expected =
        TraceIdHex(tid->number == 1 ? traces[0].trace_id
                                    : traces[1].trace_id);
    EXPECT_EQ(trace_id->string, expected);
  }
  EXPECT_EQ(tids.size(), 2u);
}

TEST(ExportTest, HistogramTableAndSnapshotDiffRender) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("service/execute_ns");
  for (int i = 1; i <= 100; ++i) h->Record(i * 1000);
  std::string table = RenderHistogramTable(registry.Snapshot());
  EXPECT_NE(table.find("service/execute_ns"), std::string::npos);
  EXPECT_NE(table.find("p95"), std::string::npos);
  EXPECT_NE(table.find("p99"), std::string::npos);
  EXPECT_NE(table.find("max"), std::string::npos);
  // No histograms, no table.
  EXPECT_TRUE(RenderHistogramTable(MetricsSnapshot{}).empty());

  MetricsSnapshot prev = registry.Snapshot();
  registry.GetCounter("service/requests_completed")->Add(5);
  registry.GetGauge("service/queue_depth")->Set(3);
  h->Record(7);
  std::string diff =
      RenderSnapshotDiff(DiffSnapshots(prev, registry.Snapshot()));
  EXPECT_NE(diff.find("service/requests_completed +5"), std::string::npos);
  EXPECT_NE(diff.find("service/queue_depth = 3"), std::string::npos);
  EXPECT_NE(diff.find("count=1"), std::string::npos);
  EXPECT_TRUE(RenderSnapshotDiff(MetricsSnapshot{}).empty());
}

TEST(ExportTest, MetricsJsonRoundTripsThroughParser) {
  MetricsRegistry registry;
  registry.GetCounter("eval/firings")->Add(12);
  registry.GetGauge("sqo/tree_classes")->Set(4);
  Histogram* h = registry.GetHistogram("eval/iteration_ns");
  h->Record(100);
  h->Record(200);

  std::string json = ExportMetricsJson(registry);
  Result<JsonValue> parsed = ParseJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  EXPECT_EQ(parsed.value().Find("counters")->Find("eval/firings")->number, 12);
  EXPECT_EQ(parsed.value().Find("gauges")->Find("sqo/tree_classes")->number,
            4);
  const JsonValue* hist =
      parsed.value().Find("histograms")->Find("eval/iteration_ns");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->Find("count")->number, 2);
  EXPECT_EQ(hist->Find("sum")->number, 300);
  // The full tail quartet is exported for dashboards.
  ASSERT_NE(hist->Find("p50"), nullptr);
  ASSERT_NE(hist->Find("p95"), nullptr);
  ASSERT_NE(hist->Find("p99"), nullptr);
  EXPECT_LE(hist->Find("p50")->number, hist->Find("p99")->number);
}

TEST(JsonTest, RejectsMalformedInput) {
  EXPECT_FALSE(ValidateJson("{").ok());
  EXPECT_FALSE(ValidateJson("{\"a\":}").ok());
  EXPECT_FALSE(ValidateJson("[1,2,]").ok());
  EXPECT_FALSE(ValidateJson("\"unterminated").ok());
  EXPECT_FALSE(ValidateJson("{} trailing").ok());
  EXPECT_FALSE(ValidateJson("nul").ok());
  EXPECT_TRUE(ValidateJson("{\"a\": [1, 2.5, -3e2, \"s\", true, null]}").ok());
}

TEST(JsonTest, SurrogatePairsBecomeOneCodePoint) {
  // A valid escaped pair is one 4-byte UTF-8 sequence, equal to the raw
  // bytes; lone or mis-ordered surrogates keep their 3-byte forms.
  const std::pair<const char*, const char*> cases[] = {
      {R"("\uD83D\uDE00")", "\xF0\x9F\x98\x80"},
      {R"("a\uD83D\uDE00b")", "a\xF0\x9F\x98\x80" "b"},
      {R"("\uDBFF\uDFFF")", "\xF4\x8F\xBF\xBF"},
      {R"("\uD83D")", "\xED\xA0\xBD"},
      {R"("\uDE00")", "\xED\xB8\x80"},
      {R"("\uD83Dx")", "\xED\xA0\xBDx"},
      {R"("\uD83D\u0041")", "\xED\xA0\xBD" "A"},
      {R"("\uD83D\uD83D")", "\xED\xA0\xBD\xED\xA0\xBD"},
      {R"("\uDE00\uD83D")", "\xED\xB8\x80\xED\xA0\xBD"},
  };
  for (const auto& [text, utf8] : cases) {
    Result<JsonValue> parsed = ParseJson(text);
    ASSERT_TRUE(parsed.ok()) << text;
    EXPECT_EQ(parsed.value().string, utf8) << text;
    JsonReader reader(text);
    std::string read;
    ASSERT_TRUE(reader.ReadString(&read) && reader.Finish()) << text;
    EXPECT_EQ(read, utf8) << text;
  }
  EXPECT_EQ(ParseJson("\"\xF0\x9F\x98\x80\"").value().string,
            ParseJson(R"("\uD83D\uDE00")").value().string);
  // A malformed second escape is still an error, paired or not.
  EXPECT_FALSE(ValidateJson(R"("\uD83D\uDE0")").ok());
  EXPECT_FALSE(ValidateJson(R"("\uD83D\u")").ok());
}

TEST(JsonTest, NumbersParseLikeStrtod) {
  for (const char* text :
       {"0", "-0", "9007199254740991", "-9007199254740991", "9007199254740992",
        "-9007199254740992", "1.5", "-1e-3", "1e300", "1e400", "-1e-400",
        "123456789012345", "1234567890123456", "007", "2.5E+3"}) {
    const double expected = std::strtod(text, nullptr);
    Result<JsonValue> parsed = ParseJson(text);
    ASSERT_TRUE(parsed.ok()) << text;
    EXPECT_EQ(parsed.value().number, expected) << text;
    EXPECT_EQ(std::signbit(parsed.value().number), std::signbit(expected))
        << text;
    JsonReader reader(text);
    JsonNumber number;
    ASSERT_TRUE(reader.ReadNumber(&number) && reader.Finish()) << text;
    EXPECT_EQ(number.token, text);
    EXPECT_EQ(number.ToDouble(), expected) << text;
    if (number.is_small_int) {
      EXPECT_EQ(static_cast<double>(number.integer), expected) << text;
    }
  }
  JsonReader small("-123456789012345");
  JsonNumber number;
  ASSERT_TRUE(small.ReadNumber(&number));
  EXPECT_TRUE(number.is_small_int);
  EXPECT_EQ(number.integer, -123456789012345);
  JsonReader wide("1234567890123456");
  ASSERT_TRUE(wide.ReadNumber(&number));
  EXPECT_FALSE(number.is_small_int);
}

TEST(JsonTest, ReaderWalksMembersAndElements) {
  JsonReader reader(R"( {"a": [1, "x", {"b": null}], "a": true, "c": {}} )");
  ASSERT_TRUE(reader.EnterObject());
  std::vector<std::string> keys;
  std::string_view key;
  while (reader.NextMember(&key)) {
    keys.emplace_back(key);
    JsonReader::Kind kind;
    ASSERT_TRUE(reader.Peek(&kind));
    if (keys.size() == 1) {
      ASSERT_EQ(kind, JsonReader::Kind::kArray);
      ASSERT_TRUE(reader.EnterArray());
      int elements = 0;
      while (reader.NextElement()) {
        ++elements;
        ASSERT_TRUE(reader.SkipValue());
      }
      EXPECT_EQ(elements, 3);
    } else {
      ASSERT_TRUE(reader.SkipValue());
    }
  }
  ASSERT_TRUE(reader.ok()) << reader.status().message();
  EXPECT_TRUE(reader.Finish());
  EXPECT_EQ(keys, (std::vector<std::string>{"a", "a", "c"}));
  // ParseJson keeps the first of duplicated keys.
  EXPECT_EQ(ParseJson(R"({"a":1,"a":2})").value().Find("a")->number, 1);
}

TEST(JsonTest, DepthCapMatchesAcrossReaderAndDom) {
  // The top-level value is depth 0; a value deeper than 200 is an error.
  for (int depth = 199; depth <= 203; ++depth) {
    for (const std::string& core : {std::string(), std::string("0")}) {
      const std::string text =
          std::string(depth, '[') + core + std::string(depth, ']');
      const int deepest = core.empty() ? depth - 1 : depth;
      const bool ok = deepest <= JsonReader::kMaxDepth;
      EXPECT_EQ(ParseJson(text).ok(), ok) << depth << core;
      EXPECT_EQ(ValidateJson(text).ok(), ok) << depth << core;
    }
  }
}

// ------------------------------------------------- pipeline integration

TEST(ObsIntegrationTest, OptimizerEmitsPhaseSpans) {
  Tracer tracer(true);
  MetricsRegistry metrics;
  SqoOptions options;
  options.tracer = &tracer;
  options.metrics = &metrics;
  Result<SqoReport> report = OptimizeProgram(
      MakeAbClosureProgram(), {MakeAbIc()}, options);
  ASSERT_TRUE(report.ok());

  std::map<std::string, int> names;
  for (const SpanRecord& s : tracer.spans()) ++names[s.name];
  EXPECT_EQ(names["sqo.optimize"], 1);
  EXPECT_EQ(names["sqo.validate"], 1);
  EXPECT_EQ(names["sqo.normalize"], 1);
  EXPECT_EQ(names["sqo.local_rewrite"], 1);
  EXPECT_EQ(names["sqo.adorn"], 1);
  EXPECT_GE(names["sqo.adorn.iteration"], 1);
  EXPECT_EQ(names["sqo.tree"], 1);
  EXPECT_EQ(names["sqo.residues"], 1);
  EXPECT_EQ(names["sqo.prune"], 1);

  // Every phase span is a descendant of sqo.optimize.
  int root_id = -1;
  for (const SpanRecord& s : tracer.spans()) {
    if (s.name == "sqo.optimize") root_id = s.id;
  }
  for (const SpanRecord& s : tracer.spans()) {
    if (s.name == "sqo.adorn" || s.name == "sqo.tree") {
      EXPECT_EQ(s.parent_id, root_id);
    }
  }

  // Phase gauges and pipeline sizes landed in the registry.
  EXPECT_GT(metrics.gauges().count("sqo/phase/adorn_ns"), 0u);
  EXPECT_GT(metrics.gauges().count("sqo/phase/tree_ns"), 0u);
  EXPECT_EQ(metrics.GetGauge("sqo/adorned_preds")->value(),
            report.value().adorned_predicates);
}

TEST(ObsIntegrationTest, EvaluatorEmitsIterationSpansAndProfiles) {
  Program p = MakeGoodPathProgram();
  Database edb;
  edb.InsertAtom(Atom("step", {Term::Int(1), Term::Int(2)}));
  edb.InsertAtom(Atom("step", {Term::Int(2), Term::Int(3)}));
  edb.InsertAtom(Atom("startPoint", {Term::Int(1)}));
  edb.InsertAtom(Atom("endPoint", {Term::Int(3)}));

  Tracer tracer(true);
  MetricsRegistry metrics;
  EvalOptions options;
  options.tracer = &tracer;
  options.metrics = &metrics;
  options.profile_rules = true;

  Evaluator evaluator(p, options);
  Result<Database> idb = evaluator.Evaluate(edb);
  ASSERT_TRUE(idb.ok());

  int iteration_spans = 0, rule_spans = 0, eval_roots = 0;
  for (const SpanRecord& s : tracer.spans()) {
    if (s.name == "eval.iteration") ++iteration_spans;
    if (s.name == "eval.rule") ++rule_spans;
    if (s.name == "eval") ++eval_roots;
  }
  EXPECT_EQ(eval_roots, 1);
  EXPECT_EQ(iteration_spans, evaluator.stats().iterations);
  EXPECT_GT(rule_spans, 0);

  // The facade invariant: stats() is exactly the sum of rule_profiles().
  const EvalStats& stats = evaluator.stats();
  EvalStats recomputed = EvalStats::FromProfiles(stats.iterations,
                                                 evaluator.rule_profiles());
  EXPECT_EQ(stats.rule_firings, recomputed.rule_firings);
  EXPECT_EQ(stats.tuples_derived, recomputed.tuples_derived);
  EXPECT_EQ(stats.duplicate_derivations, recomputed.duplicate_derivations);
  EXPECT_EQ(stats.join_probes, recomputed.join_probes);
  EXPECT_EQ(stats.comparison_checks, recomputed.comparison_checks);

  // Registry mirrors the facade.
  EXPECT_EQ(metrics.GetCounter("eval/tuples_derived")->value(),
            stats.tuples_derived);
  EXPECT_EQ(metrics.GetCounter("eval/iterations")->value(), stats.iterations);
  EXPECT_EQ(metrics.GetHistogram("eval/iteration_ns")->count(),
            stats.iterations);

  // Per-rule timing was on, and some rule did attributable work.
  bool some_rule_fired = false;
  for (const RuleProfile& profile : evaluator.rule_profiles()) {
    if (profile.firings > 0) some_rule_fired = true;
  }
  EXPECT_TRUE(some_rule_fired);

  std::string table = RenderRuleProfileTable(evaluator.rule_profiles());
  EXPECT_NE(table.find("path"), std::string::npos);
  EXPECT_NE(table.find("firings"), std::string::npos);
}

TEST(ObsIntegrationTest, DisabledHooksLeaveNoTrace) {
  Program p = MakeGoodPathProgram();
  Database edb;
  edb.InsertAtom(Atom("step", {Term::Int(1), Term::Int(2)}));
  edb.InsertAtom(Atom("startPoint", {Term::Int(1)}));
  edb.InsertAtom(Atom("endPoint", {Term::Int(2)}));

  // Default options: no tracer, no metrics, no profiling — identical
  // counters to the instrumented run, zero recorded state.
  Evaluator plain(p, {});
  ASSERT_TRUE(plain.Evaluate(edb).ok());
  EXPECT_GT(plain.stats().rule_firings, 0);
  for (const RuleProfile& profile : plain.rule_profiles()) {
    EXPECT_EQ(profile.time_ns, 0);  // clock never read
  }

  Tracer disabled_tracer;  // constructed but not enabled
  EvalOptions options;
  options.tracer = &disabled_tracer;
  Evaluator traced(p, options);
  ASSERT_TRUE(traced.Evaluate(edb).ok());
  EXPECT_TRUE(disabled_tracer.spans().empty());
  EXPECT_EQ(plain.stats().rule_firings, traced.stats().rule_firings);
  EXPECT_EQ(plain.stats().join_probes, traced.stats().join_probes);
}

}  // namespace
}  // namespace sqod
