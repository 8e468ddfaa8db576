// The traced replay: the same seeded ops as the wire run, replayed
// single-threaded in-process through each layer's public calls, in the
// order the server makes them. Spans are recorded here, around those calls
// (never inside the program), kept in memory and folded into per-layer
// metrics when a pass ends. Counters come from the EvalStats, MaintainStats
// and SqoReport the calls return.
//
// A run alternates untraced and traced passes over the same op prefix, each
// on a fresh Engine; the ratio of their op-phase times is the tracing
// overhead. Timings are medians over traced passes; the deterministic
// counters come from the first traced pass.

#include <algorithm>
#include <map>
#include <memory>
#include <utility>

#include "bench.h"
#include "src/engine/engine.h"
#include "src/engine/view.h"
#include "src/obs/trace.h"
#include "src/parser/parser.h"
#include "src/proto/proto.h"

namespace sqodbench {
namespace {

using sqod::NowNs;

// Ops per pass. churn: kChurnWrites batches, each followed by
// kChurnReadsPerWrite reads; a multiple of 4 batches returns both views to
// their base state.
constexpr uint64_t kServeOps = 60;
constexpr uint64_t kLoadOps = 40;
constexpr uint64_t kChurnWrites = 24;

constexpr const char* kPassNames[] = {"validate", "normalize", "fd_rewrite",
                                      "local_rewrite", "adorn", "tree",
                                      "residues", "prune"};

struct SpanRecord {
  int64_t op = -1;  // -1 = set-up
  int parent = -1;
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

// In-memory span log. Disabled, it records nothing and reads no clocks.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}
  bool on() const { return on_; }

  int Open(std::string name) {
    if (!on_) return -1;
    spans_.push_back({op_, current(), std::move(name), NowNs(), 0});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void Close(int id) {
    if (id < 0) return;
    spans_[static_cast<size_t>(id)].end_ns = NowNs();
    stack_.pop_back();
  }
  // A closed span whose interval was measured elsewhere, under the
  // innermost open span.
  int AddClosed(std::string name, int64_t start_ns, int64_t end_ns,
                int parent) {
    if (!on_) return -1;
    spans_.push_back({op_, parent, std::move(name), start_ns, end_ns});
    return static_cast<int>(spans_.size()) - 1;
  }
  int current() const { return stack_.empty() ? -1 : stack_.back(); }
  void set_op(int64_t op) { op_ = op; }
  const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  bool on_;
  int64_t op_ = -1;
  std::vector<SpanRecord> spans_;
  std::vector<int> stack_;
};

class Scope {
 public:
  Scope(Tracer* tracer, std::string name)
      : tracer_(tracer), id_(tracer->Open(std::move(name))) {}
  ~Scope() { tracer_->Close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

// Deterministic work counters of one pass (op phase unless noted).
struct Counters {
  int64_t ops = 0, reads = 0, writes = 0;
  int64_t prepares = 0, prepare_hits = 0;
  // Of the prepared program each op ran.
  int64_t adorned_rules = 0, tree_classes = 0, rules_out = 0;
  int64_t intern_hits = 0, intern_misses = 0;
  int64_t iterations = 0, derived = 0, duplicates = 0, probes = 0;
  int64_t bytecode_ops = 0, answers = 0;
  int64_t idb_changed = 0, over_deleted = 0, rederived = 0;
  int64_t count_updates = 0, recomputed = 0;
  int64_t reply_bytes = 0, query_reply_bytes = 0, reply_answers = 0;
};

struct Pass {
  Tracer tracer;
  Counters counters;
  int64_t op_phase_ns = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;

  explicit Pass(bool traced) : tracer(traced) {}
  void Fail(std::string message) {
    ++failed;
    if (errors.size() < 5) errors.push_back(std::move(message));
  }
};

// Engine::Open after ParseUnit, so the parser's share is its own span.
sqod::Result<sqod::Session> OpenUnit(sqod::Engine& engine,
                                     const std::string& source, Pass* pass) {
  sqod::Result<sqod::ParsedUnit> unit = [&] {
    Scope scope(&pass->tracer, "ParseUnit");
    return sqod::ParseUnit(source);
  }();
  if (!unit.ok()) return unit.status();
  Scope scope(&pass->tracer, "Engine::Open");
  return engine.Open(std::move(unit).value());
}

// Session::Prepare, with the pipeline's per-pass wall times and the plan
// compile time (both reported by the call) laid out as child spans.
const sqod::PreparedProgram* Prepare(sqod::Session& session, bool in_op,
                                     Pass* pass) {
  bool hit = false;
  const int64_t start = pass->tracer.on() ? NowNs() : 0;
  sqod::Result<const sqod::PreparedProgram*> prepared =
      session.Prepare(sqod::SqoOptions(), &hit);
  if (!prepared.ok()) {
    pass->Fail("prepare: " + prepared.status().message());
    return nullptr;
  }
  const sqod::PreparedProgram* p = prepared.value();
  if (pass->tracer.on()) {
    const int64_t end = NowNs();
    const int id = pass->tracer.AddClosed("Session::Prepare", start, end,
                                          pass->tracer.current());
    if (!hit) {
      int64_t at = start;
      for (const sqod::PassRunInfo& run : p->report.pass_runs) {
        const int64_t until = std::min(end, at + run.wall_ns);
        pass->tracer.AddClosed("sqo.pass." + run.name, at, until, id);
        at = until;
      }
      if (p->compiled != nullptr) {
        pass->tracer.AddClosed("CompileProgram", at,
                               std::min(end, at + p->compiled->compile_ns),
                               id);
      }
    }
  }
  if (in_op) {
    Counters& c = pass->counters;
    ++c.prepares;
    if (hit) ++c.prepare_hits;
    c.adorned_rules += p->report.adorned_rules;
    c.tree_classes += p->report.tree_classes;
    c.rules_out += static_cast<int64_t>(p->program().rules().size());
    c.intern_hits += p->report.intern_hits;
    c.intern_misses += p->report.intern_misses;
  }
  return p;
}

// Encodes a query reply the way the server does, decodes it the way the
// client does, and returns the decoded answers. Timing fields and the trace
// id stay zero, so the reply size is a deterministic count.
std::vector<sqod::Tuple> ReplyRoundTrip(uint64_t id, sqod::Response response,
                                        Pass* pass) {
  std::string payload;
  {
    Scope scope(&pass->tracer, "EncodeQueryResponse");
    payload = sqod::EncodeQueryResponse(id, sqod::MsgType::kQuery, response);
  }
  Counters& c = pass->counters;
  const int64_t bytes =
      static_cast<int64_t>(payload.size() + sqod::kFrameHeaderBytes);
  c.reply_bytes += bytes;
  c.query_reply_bytes += bytes;
  c.reply_answers += static_cast<int64_t>(response.answers.size());
  Scope scope(&pass->tracer, "DecodeServerMessage");
  sqod::Result<sqod::ServerMessage> decoded =
      sqod::DecodeServerMessage(payload);
  if (!decoded.ok()) return {};
  return std::move(decoded).value().query.answers;
}

// Prepare (a plan-cache hit after set-up, a miss on load) + Execute against
// the session's shared EDB + the reply round trip.
std::vector<sqod::Tuple> QueryOp(uint64_t id, sqod::Session& session,
                                 Pass* pass) {
  const sqod::PreparedProgram* prepared = Prepare(session, true, pass);
  if (prepared == nullptr) return {};
  sqod::EvalStats stats;
  std::vector<sqod::RuleProfile> profiles;
  sqod::Result<std::vector<sqod::Tuple>> answers = [&] {
    Scope scope(&pass->tracer, "Session::Execute");
    return session.Execute(*prepared, session.SharedEdb(), sqod::EvalOptions(),
                           &stats, &profiles);
  }();
  if (!answers.ok()) {
    pass->Fail("execute: " + answers.status().message());
    return {};
  }
  Counters& c = pass->counters;
  c.iterations += stats.iterations;
  c.derived += stats.tuples_derived;
  c.duplicates += stats.duplicate_derivations;
  c.probes += stats.join_probes;
  for (const sqod::RuleProfile& profile : profiles) {
    c.bytecode_ops += profile.ops;
  }
  c.answers += static_cast<int64_t>(answers.value().size());
  sqod::Response response;
  response.answers = std::move(answers).value();
  response.stats = stats;
  response.optimized = true;
  response.snapshot_version = 0;
  return ReplyRoundTrip(id, std::move(response), pass);
}

// Runs `op(index)` for each op of the pass inside an "op" root span, then
// `check(index)` outside it, so oracle checks stay out of the op times.
template <typename Op, typename CheckFn>
void OpPhase(uint64_t count, Pass* pass, const Op& op, const CheckFn& check) {
  for (uint64_t i = 0; i < count; ++i) {
    pass->tracer.set_op(static_cast<int64_t>(i));
    const int64_t t0 = NowNs();
    {
      Scope root(&pass->tracer, "op");
      op(i);
    }
    pass->op_phase_ns += NowNs() - t0;
    pass->tracer.set_op(-1);
    ++pass->counters.ops;
    check(i);
  }
}

void Check(bool ok, const std::string& what, Pass* pass) {
  if (!ok) pass->Fail(what + ": answers differ from the oracle");
}

void ServePass(uint64_t seed, const ServeInputs& in, Pass* pass) {
  sqod::Engine engine;
  std::vector<sqod::Session> sessions;
  for (const Unit& unit : in.units) {
    sqod::Result<sqod::Session> session = OpenUnit(engine, unit.source, pass);
    if (!session.ok()) return pass->Fail("open: " + session.status().message());
    sessions.push_back(std::move(session).value());
    Prepare(sessions.back(), false, pass);
    sessions.back().SharedEdb();
  }
  size_t u = 0;
  std::vector<sqod::Tuple> reply;
  OpPhase(
      kServeOps, pass,
      [&](uint64_t i) {
        u = static_cast<size_t>(ServeOpUnit(seed, i));
        reply = QueryOp(i, sessions[u], pass);
      },
      [&](uint64_t) {
        Check(SameAnswers(reply, in.units[u].answers), in.names[u], pass);
      });
}

void LoadPass(uint64_t seed, Pass* pass) {
  std::vector<Unit> units;
  for (uint64_t i = 0; i < kLoadOps; ++i) {
    units.push_back(MakeLoadUnit(seed, i));
  }
  sqod::Engine engine;
  // Kept until the pass ends: the server retains its sessions too, and
  // freeing them is not part of an op.
  std::vector<sqod::Session> sessions;
  std::vector<sqod::Tuple> reply;
  OpPhase(
      kLoadOps, pass,
      [&](uint64_t i) {
        reply.clear();
        sqod::Result<sqod::Session> session =
            OpenUnit(engine, units[static_cast<size_t>(i)].source, pass);
        if (!session.ok()) {
          return pass->Fail("open: " + session.status().message());
        }
        sessions.push_back(std::move(session).value());
        reply = QueryOp(i, sessions.back(), pass);
      },
      [&](uint64_t i) {
        Check(SameAnswers(reply, units[static_cast<size_t>(i)].answers),
              "load op " + std::to_string(i), pass);
      });
}

void ChurnPass(uint64_t seed, const ChurnInputs& in, Pass* pass) {
  sqod::Engine engine;
  std::vector<sqod::Session> sessions;
  std::vector<const sqod::PreparedProgram*> plans;
  for (const ChurnView& view : in.views) {
    sqod::Result<sqod::Session> session = OpenUnit(engine, view.source, pass);
    if (!session.ok()) return pass->Fail("open: " + session.status().message());
    sessions.push_back(std::move(session).value());
    plans.push_back(Prepare(sessions.back(), false, pass));
    if (plans.back() == nullptr) return;
    Scope scope(&pass->tracer, "Session::Materialize");
    sqod::Result<sqod::MaterializedView*> built =
        sessions.back().Materialize(*plans.back());
    if (!built.ok()) {
      return pass->Fail("materialize: " + built.status().message());
    }
  }
  // The server re-resolves the plan and the warm view on every request.
  auto resolve = [&](size_t v) -> sqod::MaterializedView* {
    if (Prepare(sessions[v], true, pass) == nullptr) return nullptr;
    Scope scope(&pass->tracer, "Session::Materialize");
    sqod::Result<sqod::MaterializedView*> view =
        sessions[v].Materialize(*plans[v]);
    return view.ok() ? view.value() : nullptr;
  };
  // The last read's view, snapshot version and decoded answers.
  size_t read_view = 0;
  int64_t read_version = -1;
  std::vector<sqod::Tuple> reply;
  std::vector<int64_t> expected(in.views.size(), 0);
  uint64_t next_read = 0;
  constexpr uint64_t kCycle = 1 + kChurnReadsPerWrite;
  OpPhase(kCycle * kChurnWrites, pass, [&](uint64_t i) {
    read_version = -1;
    Counters& c = pass->counters;
    if (i % kCycle == 0) {
      ++c.writes;
      const uint64_t j = i / kCycle;
      const size_t v = static_cast<size_t>(ChurnWriteView(j));
      const ChurnView& view = in.views[v];
      const bool forward = ChurnWriteForward(j);
      sqod::FactDelta delta;
      {
        Scope scope(&pass->tracer, "ParseAtomText");
        for (const auto& [facts, into] :
             {std::make_pair(forward ? &view.forward_inserts
                                     : &view.forward_deletes,
                             &delta.inserts),
              std::make_pair(forward ? &view.forward_deletes
                                     : &view.forward_inserts,
                             &delta.deletes)}) {
          for (const std::string& text : *facts) {
            into->push_back(sqod::ParseAtomText(text).take());
          }
        }
      }
      sqod::MaterializedView* target = resolve(v);
      if (target == nullptr) return pass->Fail("resolve view");
      sqod::Result<sqod::MaintainStats> stats = [&] {
        Scope scope(&pass->tracer, "MaterializedView::ApplyDelta");
        return target->ApplyDelta(delta);
      }();
      if (!stats.ok()) return pass->Fail("apply: " + stats.status().message());
      const sqod::MaintainStats& s = stats.value();
      c.idb_changed += s.idb_inserted + s.idb_deleted;
      c.over_deleted += s.over_deleted;
      c.rederived += s.rederived;
      c.count_updates += s.count_updates;
      if (s.recomputed) ++c.recomputed;
      sqod::DeltaResponse response;
      response.stats = s;
      response.stats.maintain_ns = 0;  // timing fields stay zero, as above
      response.snapshot_version = s.version;
      std::string payload;
      {
        Scope scope(&pass->tracer, "EncodeApplyDeltaResponse");
        payload = sqod::EncodeApplyDeltaResponse(i, response);
      }
      c.reply_bytes +=
          static_cast<int64_t>(payload.size() + sqod::kFrameHeaderBytes);
      sqod::Result<sqod::ServerMessage> decoded = [&] {
        Scope scope(&pass->tracer, "DecodeServerMessage");
        return sqod::DecodeServerMessage(payload);
      }();
      if (!decoded.ok() ||
          decoded.value().delta.snapshot_version != ++expected[v]) {
        pass->Fail("apply: unexpected snapshot version");
      }
      return;
    }
    ++c.reads;
    const size_t v = static_cast<size_t>(ChurnReadView(seed, next_read++));
    sqod::MaterializedView* target = resolve(v);
    if (target == nullptr) return pass->Fail("resolve view");
    sqod::Response response;
    {
      Scope scope(&pass->tracer, "MaterializedView::Answers");
      response.answers = target->Answers(&response.snapshot_version);
    }
    response.served_from_view = true;
    response.optimized = true;
    read_view = v;
    read_version = response.snapshot_version;
    reply = ReplyRoundTrip(i, std::move(response), pass);
  }, [&](uint64_t) {
    if (read_version < 0) return;
    const ChurnView& view = in.views[read_view];
    Check(SameAnswers(reply, read_version % 2 == 0 ? view.base : view.forward),
          view.name, pass);
  });
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// Per-op span times of one traced pass: total and self time by span name,
// op-root totals, and set-up spans by name.
struct Ledger {
  std::map<std::string, double> op_total_ns;
  std::map<std::string, double> setup_total_ns;
  double root_ns = 0;
  double root_self_ns = 0;
};

Ledger Fold(const Tracer& tracer) {
  const std::vector<SpanRecord>& spans = tracer.spans();
  std::vector<double> child_ns(spans.size(), 0);
  for (const SpanRecord& s : spans) {
    if (s.parent >= 0) {
      child_ns[static_cast<size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  Ledger ledger;
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    const double d = static_cast<double>(s.end_ns - s.start_ns);
    if (s.op < 0) {
      ledger.setup_total_ns[s.name] += d;
    } else if (s.name == "op") {
      ledger.root_ns += d;
      ledger.root_self_ns += d - child_ns[i];
    } else {
      ledger.op_total_ns[s.name] += d;
    }
  }
  return ledger;
}

// Timing metrics of one traced pass, per op of the kind that makes the call.
std::map<std::string, double> Timings(const Pass& pass) {
  const Ledger ledger = Fold(pass.tracer);
  const Counters& c = pass.counters;
  auto op_us = [&](std::initializer_list<const char*> names, int64_t per) {
    double ns = 0;
    for (const char* name : names) {
      auto it = ledger.op_total_ns.find(name);
      if (it != ledger.op_total_ns.end()) ns += it->second;
    }
    return Ratio(ns / 1e3, static_cast<double>(per));
  };
  std::map<std::string, double> m;
  m["parser.parse_us"] = op_us({"ParseUnit", "ParseAtomText"}, c.ops);
  m["sqo.prepare_ms"] = op_us({"Session::Prepare"}, c.ops) / 1e3;
  for (const char* name : kPassNames) {
    const std::string span = std::string("sqo.pass.") + name;
    m[span + "_us"] = op_us({span.c_str()}, c.ops);
  }
  m["engine.compile_us"] = op_us({"CompileProgram"}, c.ops);
  auto setup = ledger.setup_total_ns.find("Session::Materialize");
  m["engine.materialize_ms"] =
      setup == ledger.setup_total_ns.end() ? 0 : setup->second / 1e6;
  m["engine.view_read_us"] = op_us({"MaterializedView::Answers"}, c.reads);
  m["eval.execute_ms"] = op_us({"Session::Execute"}, c.ops) / 1e3;
  m["maintain.apply_us"] = op_us({"MaterializedView::ApplyDelta"}, c.writes);
  m["proto.encode_us"] =
      op_us({"EncodeQueryResponse", "EncodeApplyDeltaResponse"}, c.ops);
  m["proto.decode_us"] = op_us({"DecodeServerMessage"}, c.ops);
  m["unattributed_frac"] = Ratio(ledger.root_self_ns, ledger.root_ns);
  return m;
}

// Deterministic counters, per op of the kind that does the work.
std::map<std::string, double> Counts(const Counters& c) {
  const double ops = static_cast<double>(c.ops);
  const double writes = static_cast<double>(c.writes);
  std::map<std::string, double> m;
  m["sqo.adorned_rules"] = Ratio(static_cast<double>(c.adorned_rules), ops);
  m["sqo.tree_classes"] = Ratio(static_cast<double>(c.tree_classes), ops);
  m["sqo.rules_out"] = Ratio(static_cast<double>(c.rules_out), ops);
  m["sqo.intern_hit_frac"] =
      Ratio(static_cast<double>(c.intern_hits),
            static_cast<double>(c.intern_hits + c.intern_misses));
  m["engine.prepare_hit_frac"] =
      Ratio(static_cast<double>(c.prepare_hits),
            static_cast<double>(c.prepares));
  m["eval.iterations"] = Ratio(static_cast<double>(c.iterations), ops);
  m["eval.derived"] = Ratio(static_cast<double>(c.derived), ops);
  m["eval.duplicates"] = Ratio(static_cast<double>(c.duplicates), ops);
  m["eval.probes"] = Ratio(static_cast<double>(c.probes), ops);
  m["eval.bytecode_ops"] = Ratio(static_cast<double>(c.bytecode_ops), ops);
  m["eval.answer_frac"] =
      Ratio(static_cast<double>(c.answers), static_cast<double>(c.derived));
  m["maintain.idb_changed"] = Ratio(static_cast<double>(c.idb_changed), writes);
  m["maintain.over_deleted"] =
      Ratio(static_cast<double>(c.over_deleted), writes);
  m["maintain.rescued_frac"] = Ratio(static_cast<double>(c.rederived),
                                     static_cast<double>(c.over_deleted));
  m["maintain.count_updates"] =
      Ratio(static_cast<double>(c.count_updates), writes);
  m["maintain.recompute_frac"] =
      Ratio(static_cast<double>(c.recomputed), writes);
  m["proto.reply_bytes"] = Ratio(static_cast<double>(c.reply_bytes), ops);
  m["proto.bytes_per_answer"] = Ratio(static_cast<double>(c.query_reply_bytes),
                                      static_cast<double>(c.reply_answers));
  return m;
}

}  // namespace

ReplayRun RunReplay(const std::string& workload, uint64_t seed,
                    double seconds) {
  std::unique_ptr<ServeInputs> serve;
  std::unique_ptr<ChurnInputs> churn;
  if (workload == "serve") {
    serve = std::make_unique<ServeInputs>(MakeServeInputs(seed));
  } else if (workload == "churn") {
    churn = std::make_unique<ChurnInputs>(MakeChurnInputs(seed));
  }
  auto run_pass = [&](bool traced) {
    auto pass = std::make_unique<Pass>(traced);
    if (serve) {
      ServePass(seed, *serve, pass.get());
    } else if (churn) {
      ChurnPass(seed, *churn, pass.get());
    } else {
      LoadPass(seed, pass.get());
    }
    return pass;
  };

  ReplayRun run;
  std::map<std::string, std::vector<double>> timings;
  std::map<std::string, double> counts;
  std::vector<double> overhead;
  const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
  // Untraced and traced passes alternate, untraced first.
  do {
    std::unique_ptr<Pass> plain = run_pass(false);
    std::unique_ptr<Pass> traced = run_pass(true);
    for (const Pass* pass : {plain.get(), traced.get()}) {
      run.attempted += pass->counters.ops;
      run.failed += pass->failed;
      for (const std::string& e : pass->errors) {
        if (run.errors.size() < 5) run.errors.push_back(e);
      }
    }
    if (run.failed > 0) break;
    overhead.push_back(Ratio(static_cast<double>(traced->op_phase_ns),
                             static_cast<double>(plain->op_phase_ns)) -
                       1);
    for (const auto& [name, value] : Timings(*traced)) {
      timings[name].push_back(value);
    }
    if (counts.empty()) counts = Counts(traced->counters);
  } while (NowNs() < deadline);

  for (const auto& [name, values] : timings) counts[name] = Median(values);
  counts["trace_overhead_frac"] = Median(overhead);
  for (const auto& [name, value] : counts) {
    std::string unit = "count";
    auto ends_with = [&](const char* suffix) {
      const std::string s(suffix);
      return name.size() >= s.size() &&
             name.compare(name.size() - s.size(), s.size(), s) == 0;
    };
    if (ends_with("_us")) unit = "us";
    if (ends_with("_ms")) unit = "ms";
    if (ends_with("_frac")) unit = "fraction";
    if (ends_with("_bytes") || ends_with("bytes_per_answer")) unit = "bytes";
    run.metrics.push_back({name, value, unit});
  }
  return run;
}

}  // namespace sqodbench
