// Fuzz tests for the wire decoders: real encoded payloads (every request
// type; query replies with int, big-int and symbol answers; spans, stats,
// delta, hello, metrics, close and error replies) are mutated by byte
// flips, truncation, insertion, duplicated keys, reordered members and
// deep nesting, then fed to DecodeClientMessage, DecodeServerMessage and
// FrameReader. The oracle is the DOM-based reference decoder
// (tests/proto_reference.h): both decoders must agree on every verdict and
// status, and on every decoded field. Seeds are fixed, so a failure
// reproduces; run under ASan/UBSan it also checks that nothing crashes.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "src/base/value.h"
#include "src/obs/export.h"
#include "src/obs/json.h"
#include "src/obs/metrics.h"
#include "src/proto/proto.h"
#include "tests/proto_reference.h"

namespace sqod {
namespace {

// ------------------------------------------------------------- equality

::testing::AssertionResult SameJson(const JsonValue& a, const JsonValue& b) {
  if (a.kind != b.kind) return ::testing::AssertionFailure() << "kind";
  switch (a.kind) {
    case JsonValue::Kind::kNull:
      return ::testing::AssertionSuccess();
    case JsonValue::Kind::kBool:
      if (a.boolean != b.boolean) return ::testing::AssertionFailure();
      return ::testing::AssertionSuccess();
    case JsonValue::Kind::kNumber:
      if (a.number != b.number ||
          std::signbit(a.number) != std::signbit(b.number)) {
        return ::testing::AssertionFailure()
               << a.number << " vs " << b.number;
      }
      return ::testing::AssertionSuccess();
    case JsonValue::Kind::kString:
      if (a.string != b.string) {
        return ::testing::AssertionFailure() << a.string << " vs " << b.string;
      }
      return ::testing::AssertionSuccess();
    case JsonValue::Kind::kArray:
      if (a.array.size() != b.array.size()) {
        return ::testing::AssertionFailure() << "array size";
      }
      for (size_t i = 0; i < a.array.size(); ++i) {
        ::testing::AssertionResult same = SameJson(a.array[i], b.array[i]);
        if (!same) return same;
      }
      return ::testing::AssertionSuccess();
    case JsonValue::Kind::kObject: {
      if (a.object.size() != b.object.size()) {
        return ::testing::AssertionFailure() << "object size";
      }
      auto it = b.object.begin();
      for (const auto& [key, value] : a.object) {
        if (key != it->first) return ::testing::AssertionFailure() << key;
        ::testing::AssertionResult same = SameJson(value, it->second);
        if (!same) return same << " at " << key;
        ++it;
      }
      return ::testing::AssertionSuccess();
    }
  }
  return ::testing::AssertionFailure();
}

void ExpectSameStatus(const Status& a, const Status& b) {
  EXPECT_EQ(a.code(), b.code());
  EXPECT_EQ(a.message(), b.message());
}

void ExpectSameSpans(const std::vector<SpanRecord>& a,
                     const std::vector<SpanRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].parent_id, b[i].parent_id);
    EXPECT_EQ(a[i].name, b[i].name);
    EXPECT_EQ(a[i].start_ns, b[i].start_ns);
    EXPECT_EQ(a[i].duration_ns, b[i].duration_ns);
    EXPECT_EQ(a[i].attrs, b[i].attrs);
  }
}

void ExpectSameClient(const ClientMessage& a, const ClientMessage& b) {
  EXPECT_EQ(a.type, b.type);
  EXPECT_EQ(a.id, b.id);
  EXPECT_EQ(a.hello.token, b.hello.token);
  EXPECT_EQ(a.hello.min_version, b.hello.min_version);
  EXPECT_EQ(a.hello.max_version, b.hello.max_version);
  EXPECT_EQ(a.load.session, b.load.session);
  EXPECT_EQ(a.load.source, b.load.source);
  EXPECT_EQ(a.query.session, b.query.session);
  EXPECT_EQ(a.query.source, b.query.source);
  EXPECT_EQ(a.query.deadline_ms, b.query.deadline_ms);
  EXPECT_EQ(a.query.materialized, b.query.materialized);
  EXPECT_EQ(a.query.trace, b.query.trace);
  EXPECT_EQ(a.query.explain, b.query.explain);
  EXPECT_EQ(a.query.disabled_passes, b.query.disabled_passes);
  EXPECT_EQ(a.delta.session, b.delta.session);
  EXPECT_EQ(a.delta.inserts, b.delta.inserts);
  EXPECT_EQ(a.delta.deletes, b.delta.deletes);
  EXPECT_EQ(a.delta.trace, b.delta.trace);
}

void ExpectSameEvalStats(const EvalStats& a, const EvalStats& b) {
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.rule_firings, b.rule_firings);
  EXPECT_EQ(a.tuples_derived, b.tuples_derived);
  EXPECT_EQ(a.duplicate_derivations, b.duplicate_derivations);
  EXPECT_EQ(a.join_probes, b.join_probes);
  EXPECT_EQ(a.comparison_checks, b.comparison_checks);
}

void ExpectSameMaintainStats(const MaintainStats& a, const MaintainStats& b) {
  EXPECT_EQ(a.version, b.version);
  EXPECT_EQ(a.recomputed, b.recomputed);
  EXPECT_EQ(a.edb_inserted, b.edb_inserted);
  EXPECT_EQ(a.edb_deleted, b.edb_deleted);
  EXPECT_EQ(a.idb_inserted, b.idb_inserted);
  EXPECT_EQ(a.idb_deleted, b.idb_deleted);
  EXPECT_EQ(a.over_deleted, b.over_deleted);
  EXPECT_EQ(a.rederived, b.rederived);
  EXPECT_EQ(a.count_updates, b.count_updates);
  EXPECT_EQ(a.strata_incremental, b.strata_incremental);
  EXPECT_EQ(a.strata_recomputed, b.strata_recomputed);
  EXPECT_EQ(a.strata_skipped, b.strata_skipped);
  EXPECT_EQ(a.maintain_ns, b.maintain_ns);
}

void ExpectSameServer(const ServerMessage& a, const ServerMessage& b) {
  EXPECT_EQ(a.type, b.type);
  EXPECT_EQ(a.id, b.id);
  ExpectSameStatus(a.status, b.status);
  EXPECT_EQ(a.hello.version, b.hello.version);
  EXPECT_EQ(a.hello.tenant, b.hello.tenant);
  EXPECT_EQ(a.hello.server, b.hello.server);
  EXPECT_EQ(a.hello.max_frame_bytes, b.hello.max_frame_bytes);
  const Response& q = a.query;
  const Response& rq = b.query;
  ExpectSameStatus(q.status, rq.status);
  EXPECT_EQ(q.answers, rq.answers);
  ExpectSameEvalStats(q.stats, rq.stats);
  EXPECT_EQ(q.optimized, rq.optimized);
  EXPECT_EQ(q.queue_wait_ns, rq.queue_wait_ns);
  EXPECT_EQ(q.prepare_ns, rq.prepare_ns);
  EXPECT_EQ(q.execute_ns, rq.execute_ns);
  EXPECT_EQ(q.trace_id, rq.trace_id);
  EXPECT_EQ(q.prepare_cache_hit, rq.prepare_cache_hit);
  EXPECT_EQ(q.passes_ran, rq.passes_ran);
  ExpectSameSpans(q.spans, rq.spans);
  EXPECT_EQ(q.snapshot_version, rq.snapshot_version);
  EXPECT_EQ(q.served_from_view, rq.served_from_view);
  EXPECT_EQ(q.explain_json, rq.explain_json);
  const DeltaResponse& d = a.delta;
  const DeltaResponse& rd = b.delta;
  ExpectSameStatus(d.status, rd.status);
  ExpectSameMaintainStats(d.stats, rd.stats);
  EXPECT_EQ(d.snapshot_version, rd.snapshot_version);
  EXPECT_EQ(d.queue_wait_ns, rd.queue_wait_ns);
  EXPECT_EQ(d.materialize_ns, rd.materialize_ns);
  EXPECT_EQ(d.maintain_ns, rd.maintain_ns);
  EXPECT_EQ(d.trace_id, rd.trace_id);
  ExpectSameSpans(d.spans, rd.spans);
  EXPECT_TRUE(SameJson(a.metrics, b.metrics));
}

// Decodes `payload` both ways with both decoders and holds the library
// decoders to the reference.
void CheckAgainstReference(const std::string& payload) {
  SCOPED_TRACE(payload.size() < 600 ? payload
                                    : payload.substr(0, 600) + "...");
  Result<ClientMessage> client = DecodeClientMessage(payload);
  Result<ClientMessage> ref_client = reference::DecodeClientMessage(payload);
  ASSERT_EQ(client.ok(), ref_client.ok()) << client.status().message()
                                          << " / "
                                          << ref_client.status().message();
  if (client.ok()) {
    ExpectSameClient(client.value(), ref_client.value());
  } else {
    ExpectSameStatus(client.status(), ref_client.status());
  }
  Result<ServerMessage> server = DecodeServerMessage(payload);
  Result<ServerMessage> ref_server = reference::DecodeServerMessage(payload);
  ASSERT_EQ(server.ok(), ref_server.ok()) << server.status().message()
                                          << " / "
                                          << ref_server.status().message();
  if (server.ok()) {
    ExpectSameServer(server.value(), ref_server.value());
  } else {
    ExpectSameStatus(server.status(), ref_server.status());
  }
}

// --------------------------------------------------------------- corpus

std::vector<SpanRecord> SampleSpans() {
  SpanRecord root;
  root.id = 0;
  root.name = "service.request";
  root.start_ns = 1000;
  root.duration_ns = 52000;
  root.attrs = {{"tuples", 4680}, {"iterations", 12}, {"answers", -1}};
  SpanRecord child;
  child.id = 1;
  child.parent_id = 0;
  child.name = "eval \"stratum\" 0";
  child.start_ns = (int64_t{1} << 55) + 3;  // a string-form int
  child.duration_ns = 7;
  return {root, child};
}

Response QueryReply(std::vector<Tuple> answers) {
  Response r;
  r.status = Status::Ok();
  r.answers = std::move(answers);
  r.stats.iterations = 9;
  r.stats.rule_firings = 120;
  r.stats.tuples_derived = 64;
  r.stats.duplicate_derivations = 56;
  r.stats.join_probes = 4000;
  r.stats.comparison_checks = 3;
  r.optimized = true;
  r.queue_wait_ns = 15;
  r.prepare_ns = 1500;
  r.execute_ns = 8000;
  r.trace_id = 0x0123456789abcdefull;
  r.prepare_cache_hit = true;
  r.passes_ran = 8;
  r.snapshot_version = 3;
  r.served_from_view = true;
  return r;
}

std::vector<std::string> Corpus() {
  std::vector<std::string> out;
  // Requests, every type.
  out.push_back(EncodeHello(1, HelloParams{"acme-token", 1, 2}));
  out.push_back(EncodeLoadProgram(
      2, {"s1", "e(1, 2).\np(X, Y) :- e(X, Y).\n?- p(X, Y).\n"}));
  QueryParams query;
  query.session = "s1";
  query.deadline_ms = 250;
  query.trace = true;
  query.disabled_passes = {"residues", "tree"};
  out.push_back(EncodeQuery(3, query));
  QueryParams inline_query;
  inline_query.source = "q(X) :- e(X, \"r\\u00f6m\").\n?- q(X).";
  inline_query.materialized = true;
  inline_query.explain = true;
  out.push_back(EncodeQuery(int64_t{1} << 54, inline_query));
  out.push_back(EncodeExplain(4, "s1"));
  ApplyDeltaParams delta;
  delta.session = "s1";
  delta.inserts = {"e(2, 3)", "e(3, \"x\")"};
  delta.deletes = {"e(1, 2)"};
  delta.trace = true;
  out.push_back(EncodeApplyDelta(5, delta));
  out.push_back(EncodeMetricsRequest(6));
  out.push_back(EncodeClose(7));

  // Query replies: int, big-int and symbol answers, spans, explain.
  std::vector<Tuple> ints;
  for (int i = 0; i < 40; ++i) {
    ints.push_back({Value::Int(i), Value::Int(i * 7 - 100)});
  }
  out.push_back(EncodeQueryResponse(8, MsgType::kQuery, QueryReply(ints)));
  Response mixed = QueryReply({
      {Value::Int(INT64_MIN), Value::Symbol("rome")},
      {Value::Int((int64_t{1} << 53) + 1), Value::Symbol("with \"quotes\"")},
      {Value::Int(-((int64_t{1} << 53) - 1)),
       Value::Symbol("\xC3\xA9t\xC3\xA9")},
      {Value::Int(INT64_MAX), Value::Symbol("tab\there")},
  });
  mixed.spans = SampleSpans();
  mixed.explain_json = R"({"rules":[1,2]})";
  out.push_back(EncodeQueryResponse(9, MsgType::kQuery, mixed));
  out.push_back(EncodeQueryResponse(10, MsgType::kExplain, mixed));
  Response failed;
  failed.status = Status::DeadlineExceeded("deadline of 5 ms exceeded");
  failed.trace_id = 77;
  out.push_back(EncodeQueryResponse(11, MsgType::kQuery, failed));
  out.push_back(EncodeLoadProgramResponse(12, QueryReply({})));

  // Delta, hello, metrics, close and error replies.
  DeltaResponse applied;
  applied.status = Status::Ok();
  applied.stats.version = 4;
  applied.stats.recomputed = true;
  applied.stats.edb_inserted = 2;
  applied.stats.edb_deleted = 1;
  applied.stats.idb_inserted = 30;
  applied.stats.idb_deleted = 12;
  applied.stats.over_deleted = 20;
  applied.stats.rederived = 8;
  applied.stats.count_updates = 5;
  applied.stats.strata_incremental = 2;
  applied.stats.strata_recomputed = 1;
  applied.stats.strata_skipped = 3;
  applied.stats.maintain_ns = 272000;
  applied.snapshot_version = 4;
  applied.queue_wait_ns = 10;
  applied.materialize_ns = 5;
  applied.maintain_ns = 272000;
  applied.trace_id = 99;
  applied.spans = SampleSpans();
  out.push_back(EncodeApplyDeltaResponse(13, applied));
  out.push_back(EncodeHelloResponse(14, HelloResult{1, "acme", "sqod", 4096}));
  MetricsRegistry registry;
  registry.GetCounter("net/frames_in")->Add(12);
  registry.GetGauge("sqo/phase/adorn_ns")->Set(-5);
  registry.GetHistogram("net/decode_ns")->Record(1234);
  registry.GetHistogram("net/decode_ns")->Record(99);
  out.push_back(EncodeMetricsResponse(15, ExportMetricsJson(registry)));
  out.push_back(EncodeCloseResponse(16));
  out.push_back(EncodeErrorResponse(
      17, MsgType::kApplyDelta, Status::ResourceExhausted("quota \"x\"")));
  out.push_back(EncodeErrorResponse(0, MsgType::kClose,
                                    Status::InvalidArgument("bad frame")));
  return out;
}

// ------------------------------------------------------------ mutations

// Top-level members of an object payload, as raw text slices. Returns an
// empty list when `payload` is not a flat-scannable object.
std::vector<std::string> SplitMembers(const std::string& payload) {
  std::vector<std::string> members;
  if (payload.size() < 2 || payload.front() != '{' || payload.back() != '}') {
    return members;
  }
  int depth = 0;
  bool in_string = false;
  size_t start = 1;
  for (size_t i = 1; i + 1 < payload.size(); ++i) {
    const char c = payload[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    if (c == ',' && depth == 0) {
      members.push_back(payload.substr(start, i - start));
      start = i + 1;
    }
  }
  members.push_back(payload.substr(start, payload.size() - 1 - start));
  return members;
}

std::string JoinMembers(const std::vector<std::string>& members) {
  std::string out = "{";
  for (size_t i = 0; i < members.size(); ++i) {
    if (i > 0) out.push_back(',');
    out += members[i];
  }
  out.push_back('}');
  return out;
}

const char* const kTokens[] = {
    "{", "}", "[", "]", ",", ":", "\"", "\\", "\\u", "\\uD83D", "\\uDE00",
    "0", "-", "1e400", "1.5", "9007199254740993", "-0", "true", "null",
    "\"i\"", "{\"i\":\"12\"}", " ", "\x01", "\xff", "nul",
};

const char* const kKeys[] = {
    "type", "id", "code", "error", "answers", "stats", "spans", "attrs",
    "session", "source", "inserts", "deletes", "disabled_passes", "token",
    "min_version", "max_version", "trace_id", "metrics", "version",
    "snapshot_version", "explain", "deadline_ms", "trace", "i",
};

const char* const kValues[] = {
    "\"query\"", "\"hello\"", "\"apply_delta\"", "\"metrics\"", "\"OK\"",
    "\"NOT_A_CODE\"", "7", "-3", "\"42\"", "1.5", "1e300", "true", "null",
    "[]", "{}", "[[1,2]]", "[[\"a\",{\"i\":\"9\"}]]", "[1]", "[\"x\"]",
    "{\"id\":3}", "\"s2\"", "[{\"id\":1,\"attrs\":{\"b\":1,\"a\":2}}]",
};

class Mutator {
 public:
  explicit Mutator(uint32_t seed) : rng_(seed) {}

  std::string Mutate(const std::string& payload) {
    std::string out = payload;
    switch (Below(7)) {
      case 0: {  // byte flip
        if (out.empty()) break;
        const size_t at = Below(out.size());
        out[at] = Below(2) == 0 ? static_cast<char>(Below(256))
                                : static_cast<char>(out[at] ^ (1 << Below(8)));
        break;
      }
      case 1:  // truncation
        out.resize(Below(out.size() + 1));
        break;
      case 2:  // insertion
        out.insert(Below(out.size() + 1), Pick(kTokens));
        break;
      case 3: {  // duplicated key, before or after the original
        const std::string member =
            std::string("\"") + Pick(kKeys) + "\":" + Pick(kValues);
        if (Below(2) == 0 && out.size() >= 2) {
          out.insert(1, member + ",");
        } else if (!out.empty()) {
          out.insert(out.size() - 1, "," + member);
        }
        break;
      }
      case 4: {  // reordered members
        std::vector<std::string> members = SplitMembers(out);
        if (members.empty()) break;
        std::shuffle(members.begin(), members.end(), rng_);
        out = JoinMembers(members);
        break;
      }
      case 5: {  // a member's value replaced
        std::vector<std::string> members = SplitMembers(out);
        if (members.empty()) break;
        std::string& member = members[Below(members.size())];
        const size_t colon = member.find("\":");
        if (colon == std::string::npos) break;
        member = member.substr(0, colon + 2) + Pick(kValues);
        out = JoinMembers(members);
        break;
      }
      default:  // a duplicated member, copied verbatim
      {
        std::vector<std::string> members = SplitMembers(out);
        if (members.empty()) break;
        const std::string copy = members[Below(members.size())];
        members.insert(members.begin() + Below(members.size() + 1), copy);
        out = JoinMembers(members);
        break;
      }
    }
    return out;
  }

  size_t Below(size_t n) {
    return n == 0 ? 0 : std::uniform_int_distribution<size_t>(0, n - 1)(rng_);
  }

 private:
  template <size_t N>
  const char* Pick(const char* const (&items)[N]) {
    return items[Below(N)];
  }

  std::mt19937 rng_;
};

// ---------------------------------------------------------------- tests

TEST(ProtoFuzzTest, CorpusDecodesLikeTheReference) {
  for (const std::string& payload : Corpus()) CheckAgainstReference(payload);
}

TEST(ProtoFuzzTest, CorpusDecodesToTheEncodedMessage) {
  // The unmutated corpus decodes without errors both ways round.
  int requests = 0, replies = 0;
  for (const std::string& payload : Corpus()) {
    requests += DecodeClientMessage(payload).ok();
    replies += DecodeServerMessage(payload).ok();
  }
  EXPECT_GE(requests, 8);
  EXPECT_EQ(replies, static_cast<int>(Corpus().size()));
}

TEST(ProtoFuzzTest, MutatedPayloadsMatchTheReference) {
  const std::vector<std::string> corpus = Corpus();
  int accepted = 0, rejected = 0;
  for (uint32_t seed : {1u, 2u, 3u, 4u}) {
    Mutator mutator(seed);
    for (int round = 0; round < 300; ++round) {
      for (const std::string& payload : corpus) {
        std::string mutated = mutator.Mutate(payload);
        if (mutator.Below(3) == 0) mutated = mutator.Mutate(mutated);
        CheckAgainstReference(mutated);
        if (::testing::Test::HasFatalFailure()) return;
        (DecodeServerMessage(mutated).ok() ? accepted : rejected) += 1;
      }
    }
  }
  // The mutations reach both verdicts often, so both paths are compared.
  EXPECT_GT(accepted, 2000);
  EXPECT_GT(rejected, 2000);
}

std::string Nested(int depth, const std::string& core) {
  return std::string(depth, '[') + core + std::string(depth, ']');
}

TEST(ProtoFuzzTest, NestingAroundTheDepthCap) {
  // The root object is depth 0, so a member holding k nested arrays puts
  // its innermost array at depth k; the cap rejects values deeper than 200.
  const std::string reply = EncodeQueryResponse(
      1, MsgType::kQuery, QueryReply({{Value::Int(1), Value::Int(2)}}));
  const std::string request = EncodeMetricsRequest(2);
  int accepted = 0, rejected = 0;
  for (int depth = 197; depth <= 203; ++depth) {
    for (const std::string& core : {std::string(), std::string("1")}) {
      const std::string nested = Nested(depth, core);
      for (const std::string& base : {reply, request}) {
        // As an unknown member, first and last.
        std::string front = base;
        front.insert(1, "\"deep\":" + nested + ",");
        CheckAgainstReference(front);
        std::string back = base;
        back.insert(back.size() - 1, ",\"deep\":" + nested);
        CheckAgainstReference(back);
        (DecodeServerMessage(front).ok() ? accepted : rejected) += 1;
      }
      // As the answers member, ahead of the reply's own.
      std::string answers = reply;
      answers.insert(1, "\"answers\":" + nested + ",");
      CheckAgainstReference(answers);
      // As a whole document.
      CheckAgainstReference(nested);
    }
  }
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
  // The boundary itself: 200 levels inside the root are fine, 201 are not.
  std::string at_cap = request;
  at_cap.insert(1, "\"deep\":" + Nested(200, "") + ",");
  EXPECT_TRUE(DecodeClientMessage(at_cap).ok());
  std::string past_cap = request;
  past_cap.insert(1, "\"deep\":" + Nested(201, "") + ",");
  EXPECT_EQ(DecodeClientMessage(past_cap).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ProtoFuzzTest, FieldOrderAndDuplicatesFollowTheReference) {
  // The type after the answers, and duplicated keys: the first one wins.
  const std::string reply = EncodeQueryResponse(
      5, MsgType::kQuery,
      QueryReply({{Value::Int(3), Value::Symbol("z")},
                  {Value::Int(4), Value::Symbol("a")}}));
  std::vector<std::string> members = SplitMembers(reply);
  ASSERT_FALSE(members.empty());
  std::rotate(members.begin(), members.begin() + 1, members.end());
  const std::string reordered = JoinMembers(members);
  CheckAgainstReference(reordered);
  Result<ServerMessage> decoded = DecodeServerMessage(reordered);
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  EXPECT_EQ(decoded.value().query.answers.size(), 2u);

  std::string duplicated = reply;
  duplicated.insert(1, R"("answers":[[1]],"id":9,)");
  CheckAgainstReference(duplicated);
  decoded = DecodeServerMessage(duplicated);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().id, 9u);
  ASSERT_EQ(decoded.value().query.answers.size(), 1u);
  EXPECT_EQ(decoded.value().query.answers[0], Tuple{Value::Int(1)});

  // A mis-typed first occurrence still wins: the field keeps its default.
  std::string mistyped = reply;
  mistyped.insert(1, R"("snapshot_version":"x","answers":7,)");
  CheckAgainstReference(mistyped);
  decoded = DecodeServerMessage(mistyped);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().query.snapshot_version, -1);
  EXPECT_TRUE(decoded.value().query.answers.empty());
}

TEST(ProtoFuzzTest, FrameReaderSurvivesMutatedStreams) {
  const std::vector<std::string> corpus = Corpus();
  Mutator mutator(11);
  for (int round = 0; round < 200; ++round) {
    std::string stream;
    for (int i = 0; i < 3; ++i) {
      stream += EncodeFrame(corpus[mutator.Below(corpus.size())]);
    }
    stream = mutator.Mutate(stream);
    FrameReader reader(64 * 1024);
    size_t at = 0;
    while (at < stream.size()) {
      const size_t n = std::min(stream.size() - at, 1 + mutator.Below(97));
      reader.Append(stream.data() + at, n);
      at += n;
      std::string payload;
      Result<bool> next = reader.Next(&payload);
      while (next.ok() && next.value()) {
        CheckAgainstReference(payload);
        next = reader.Next(&payload);
      }
      if (!next.ok()) break;  // a real connection closes here
    }
  }
}

}  // namespace
}  // namespace sqod
