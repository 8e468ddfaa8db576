#include "src/service/query_service.h"

#include <chrono>
#include <limits>
#include <utility>

#include "src/engine/explain.h"
#include "src/obs/export.h"
#include "src/obs/trace.h"

namespace sqod {

namespace {

EngineOptions MakeEngineOptions(const ServiceOptions& options) {
  EngineOptions engine_options;
  engine_options.metrics = options.metrics;
  return engine_options;
}

ThreadPool::Options MakePoolOptions(const ServiceOptions& options) {
  ThreadPool::Options pool_options;
  pool_options.threads = options.threads;
  pool_options.max_queue = options.max_queue;
  return pool_options;
}

// Per-tenant metric names live under "tenant/<name>/"; empty tenant means
// untenanted (no extra series — the service/ aggregates already cover it).
std::string TenantMetric(const std::string& tenant, const char* suffix) {
  return "tenant/" + tenant + "/" + suffix;
}

// An event-log entry stamped now, joinable with the request's spans.
LogEvent RequestEvent(const TraceContext& trace, const char* kind) {
  LogEvent event;
  event.ts_ns = NowNs();
  event.trace_id = trace.trace_id;
  event.request_id = trace.request_id;
  event.kind = kind;
  return event;
}

}  // namespace

Result<int64_t> DeadlineNsFromMs(int64_t deadline_ms, int64_t now_ns) {
  if (deadline_ms == -1) return int64_t{-1};
  if (deadline_ms < 0) {
    return Status::InvalidArgument(
        "deadline_ms must be -1 (none) or >= 0, got " +
        std::to_string(deadline_ms));
  }
  // now_ns + deadline_ms * 1e6 must fit in int64; check before multiplying.
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  if (deadline_ms > (kMax - now_ns) / 1'000'000) {
    return Status::InvalidArgument("deadline_ms " +
                                   std::to_string(deadline_ms) +
                                   " overflows the ns deadline scale");
  }
  return now_ns + deadline_ms * 1'000'000;
}

QueryService::QueryService(ServiceOptions options)
    : options_(options),
      engine_(MakeEngineOptions(options)),
      event_log_(options.event_log_capacity),
      pool_(MakePoolOptions(options)) {
  if (options_.metrics_snapshot_ms > 0) {
    // Baseline the diff window here, not in the thread: a request served
    // before the thread's first instruction must still show up in the
    // first delta.
    snapshot_thread_ = std::thread(
        [this, prev = metrics().Snapshot()]() mutable {
          SnapshotLoop(std::move(prev));
        });
  }
}

QueryService::~QueryService() { Shutdown(); }

// The per-kind data of the shared lifecycle. Outcome counters are picked
// by status: ok, cancelled, deadline exceeded, anything else. A delta batch
// has no token and no deadline, so its cancelled and deadline slots name
// the failed counter and are never reached.
struct QueryService::Kind {
  // The root span and its admission, queue and prepare phases.
  const char* span;
  const char* admission_span;
  const char* queue_span;
  const char* prepare_span;
  // Admission: service-wide and per-tenant accepted counters, the rejected
  // counter, and the rejection-cause split (null: none).
  const char* accepted;
  const char* tenant_accepted;
  const char* rejected;
  const char* rejected_queue_full;
  const char* rejected_shutdown;
  const char* completed;
  const char* cancelled;
  const char* deadline_exceeded;
  const char* failed;
  const char* slow_event;
  // Rejection and error events of this kind carry a delta=1 field.
  bool delta_event;
  // The terminal step, run after session lookup and Prepare.
  Status (QueryService::*run)(Job*, Session&,
                              const Result<const PreparedProgram*>&);
  // Puts the kind's result on the closing root span and, with `slow`, its
  // fields (after total_ns and queue_wait_ns) and, when ok, its summary.
  void (*report)(const Job& job, Span& root, LogEvent* slow);

  static void ReportQuery(const Job& job, Span& root, LogEvent* slow);
  static void ReportDelta(const Job& job, Span& root, LogEvent* slow);
  static const Kind kQuery;
  static const Kind kDelta;
};

struct QueryService::Job {
  const Kind* kind = nullptr;
  // The request as the shared stages read it. A delta batch sets source,
  // tenant and trace; its facts travel in `delta`.
  Request request;
  FactDelta delta;
  // Set on the root span right after request_id.
  std::vector<std::pair<const char*, int64_t>> root_attrs;
  // Runs exactly once, with the finished job.
  std::function<void(Job&)> deliver;
  int64_t submit_ns = 0;
  int64_t deadline_ns = -1;  // absolute, NowNs() scale
  // Request-scoped telemetry: the trace id / span collector, and the root
  // span (opened at admission, closed at finish). The embedded Tracer is
  // touched by the submitting thread only before the pool handoff, and by
  // the owning worker only after — the pool's queue is the happens-before
  // edge between the two.
  TraceContext trace;
  Span root_span;
  // The outcome. A query delivers `response`; a delta batch delivers
  // `batch`, with the shared fields (status, trace id, queue wait, version,
  // spans) taken from `response`.
  Response response;
  DeltaResponse batch;
  // What the slow-query log reads at finish.
  const PreparedProgram* prepared = nullptr;
  const MaterializedView* view = nullptr;
  std::vector<RuleProfile> profiles;
};

const QueryService::Kind QueryService::Kind::kQuery = {
    "request", "request.admission", "request.queue", "request.prepare",
    "service/requests_accepted", "requests", "service/requests_rejected",
    "service/requests_rejected_queue_full",
    "service/requests_rejected_shutdown", "service/requests_completed",
    "service/requests_cancelled", "service/requests_deadline_exceeded",
    "service/requests_failed", "slow_query", false, &QueryService::Answer,
    &Kind::ReportQuery};

const QueryService::Kind QueryService::Kind::kDelta = {
    "delta", "delta.admission", "delta.queue", "delta.prepare",
    "service/delta_batches", "delta_batches",
    "service/delta_batches_rejected", nullptr, nullptr,
    "service/delta_batches_completed", "service/delta_batches_failed",
    "service/delta_batches_failed", "service/delta_batches_failed",
    "slow_delta", true, &QueryService::Maintain, &Kind::ReportDelta};

void QueryService::Kind::ReportQuery(const Job& job, Span& root,
                                     LogEvent* slow) {
  const Response& response = job.response;
  const int64_t answers = static_cast<int64_t>(response.answers.size());
  root.SetAttr("answers", answers);
  if (slow == nullptr) return;
  slow->fields.emplace_back("prepare_ns", response.prepare_ns);
  slow->fields.emplace_back("execute_ns", response.execute_ns);
  slow->fields.emplace_back("answers", answers);
  if (!response.status.ok() || job.prepared == nullptr) return;
  ExplainReport explain =
      BuildExplainReport(job.prepared->report, job.prepared->compiled.get());
  AttachRuntime(job.prepared->report, response.stats, job.profiles, answers,
                response.execute_ns, &explain);
  if (job.view != nullptr) {
    AttachMaintenance(job.view->totals(), job.view->last_batch(),
                      job.view->batches_applied(), &explain);
  }
  slow->message = explain.Summary();
}

void QueryService::Kind::ReportDelta(const Job& job, Span& root,
                                     LogEvent* slow) {
  const int64_t version = job.response.snapshot_version;
  root.SetAttr("version", version);
  if (slow == nullptr) return;
  slow->fields.emplace_back("materialize_ns", job.batch.materialize_ns);
  slow->fields.emplace_back("maintain_ns", job.batch.maintain_ns);
  slow->fields.emplace_back("version", version);
  if (job.response.status.ok()) slow->message = job.batch.stats.Summary();
}

void QueryService::Submit(Request request,
                          std::function<void(Response)> done) {
  auto job = std::make_shared<Job>();
  job->kind = &Kind::kQuery;
  job->request = std::move(request);
  job->deliver = [done = std::move(done)](Job& finished) {
    done(std::move(finished.response));
  };
  Admit(std::move(job));
}

std::future<Response> QueryService::Submit(Request request) {
  auto promise = std::make_shared<std::promise<Response>>();
  std::future<Response> future = promise->get_future();
  Submit(std::move(request), [promise](Response response) {
    promise->set_value(std::move(response));
  });
  return future;
}

Response QueryService::Call(Request request) {
  return Submit(std::move(request)).get();
}

void QueryService::ApplyDelta(DeltaRequest request,
                              std::function<void(DeltaResponse)> done) {
  auto job = std::make_shared<Job>();
  job->kind = &Kind::kDelta;
  job->request.source = std::move(request.source);
  job->request.tenant = std::move(request.tenant);
  job->request.trace = request.trace;
  job->root_attrs = {
      {"inserts", static_cast<int64_t>(request.delta.inserts.size())},
      {"deletes", static_cast<int64_t>(request.delta.deletes.size())}};
  job->delta = std::move(request.delta);
  job->deliver = [done = std::move(done)](Job& finished) {
    DeltaResponse& batch = finished.batch;
    Response& response = finished.response;
    batch.status = std::move(response.status);
    batch.trace_id = response.trace_id;
    batch.queue_wait_ns = response.queue_wait_ns;
    batch.snapshot_version = response.snapshot_version;
    batch.spans = std::move(response.spans);
    done(std::move(batch));
  };
  Admit(std::move(job));
}

std::future<DeltaResponse> QueryService::ApplyDelta(DeltaRequest request) {
  auto promise = std::make_shared<std::promise<DeltaResponse>>();
  std::future<DeltaResponse> future = promise->get_future();
  ApplyDelta(std::move(request), [promise](DeltaResponse response) {
    promise->set_value(std::move(response));
  });
  return future;
}

DeltaResponse QueryService::CallApplyDelta(DeltaRequest request) {
  return ApplyDelta(std::move(request)).get();
}

void QueryService::Admit(std::shared_ptr<Job> job) {
  const Kind& kind = *job->kind;
  const std::string& tenant = job->request.tenant;
  Response& response = job->response;
  MetricsRegistry& metrics = this->metrics();
  job->submit_ns = NowNs();

  job->trace.trace_id = NextTraceId();
  job->trace.request_id =
      next_request_id_.fetch_add(1, std::memory_order_relaxed);
  job->trace.submit_ns = job->submit_ns;
  job->trace.metrics = &metrics;
  job->trace.tracer.set_enabled(job->request.trace);
  Tracer& tracer = job->trace.tracer;
  response.trace_id = job->trace.trace_id;

  // Everything the submitting thread records must happen strictly before
  // the pool handoff: a worker may start (and touch the tracer) the moment
  // the job is enqueued.
  // No trace-id attr here: the Chrome-trace exporter stamps every event's
  // args with the hex trace id, and a second (integer) copy on the root
  // span would shadow it.
  job->root_span = tracer.StartSpanAt(kind.span, job->submit_ns);
  job->root_span.SetAttr("request_id",
                         static_cast<int64_t>(job->trace.request_id));
  for (const auto& [key, value] : job->root_attrs) {
    job->root_span.SetAttr(key, value);
  }
  {
    Span admission = tracer.StartSpan(kind.admission_span);
    admission.SetAttr("queue_depth",
                      static_cast<int64_t>(pool_.queue_depth()));
  }

  // The single ms→ns deadline conversion. An invalid deadline is rejected
  // here, before the queue, like any other malformed request.
  Result<int64_t> deadline =
      DeadlineNsFromMs(job->request.deadline_ms, job->submit_ns);
  const char* cause = "service/requests_rejected_invalid";
  if (deadline.ok()) {
    job->deadline_ns = deadline.value();
    job->trace.deadline_ns = job->deadline_ns;
    ThreadPool::SubmitResult submitted =
        pool_.Submit([this, job] { Process(job.get()); });
    if (submitted == ThreadPool::SubmitResult::kAccepted) {
      metrics.GetCounter(kind.accepted)->Increment();
      if (!tenant.empty()) {
        metrics.GetCounter(TenantMetric(tenant, kind.tenant_accepted))
            ->Increment();
      }
      return;
    }
    const bool queue_full =
        submitted == ThreadPool::SubmitResult::kQueueFull;
    cause = queue_full ? kind.rejected_queue_full : kind.rejected_shutdown;
    response.status =
        queue_full ? Status::ResourceExhausted(
                         "admission queue full (max_queue=" +
                         std::to_string(options_.max_queue) + ")")
                   : Status::FailedPrecondition("service is shut down");
  } else {
    response.status = deadline.status();
  }

  metrics.GetCounter(kind.rejected)->Increment();
  if (cause != nullptr) metrics.GetCounter(cause)->Increment();
  if (!tenant.empty()) {
    metrics.GetCounter(TenantMetric(tenant, "rejected"))->Increment();
  }
  // Rejected requests never waited, but they still contribute a sample:
  // the queue-wait distribution covers every submitted request, so load
  // shedding pulls the percentiles down instead of hiding them.
  metrics.GetHistogram("service/queue_wait_ns")->Record(0);

  job->root_span.SetAttr("rejected", 1);
  job->root_span.End();
  if (tracer.enabled()) response.spans = tracer.TakeSpans();

  LogEvent event = RequestEvent(job->trace, "request_rejected");
  event.fields.emplace_back(
      "queue_full",
      response.status.code() == StatusCode::kResourceExhausted ? 1 : 0);
  if (kind.delta_event) event.fields.emplace_back("delta", 1);
  event.message = response.status.message();
  event_log_.Append(std::move(event));

  job->deliver(*job);
}

void QueryService::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    stopping_ = true;
  }
  snapshot_cv_.notify_all();
  if (snapshot_thread_.joinable()) snapshot_thread_.join();
  pool_.Shutdown();
}

void QueryService::SnapshotLoop(MetricsSnapshot prev) {
  const auto period = std::chrono::milliseconds(options_.metrics_snapshot_ms);
  std::unique_lock<std::mutex> lock(snapshot_mu_);
  while (!stopping_) {
    snapshot_cv_.wait_for(lock, period, [&] { return stopping_; });
    if (stopping_) break;
    // Snapshot without holding snapshot_mu_? Not needed: the registry has
    // its own lock and nothing else takes snapshot_mu_ except Shutdown.
    MetricsSnapshot curr = metrics().Snapshot();
    MetricsSnapshot diff = DiffSnapshots(prev, curr);
    prev = std::move(curr);
    if (diff.empty()) continue;
    LogEvent event;
    event.ts_ns = NowNs();
    event.kind = "metrics_snapshot";
    event.fields.emplace_back(
        "counters", static_cast<int64_t>(diff.counters.size()));
    event.fields.emplace_back("gauges",
                              static_cast<int64_t>(diff.gauges.size()));
    event.fields.emplace_back(
        "histograms", static_cast<int64_t>(diff.histograms.size()));
    event.message = RenderSnapshotDiff(diff);
    event_log_.Append(std::move(event));
  }
}

std::shared_ptr<QueryService::SessionEntry> QueryService::GetSession(
    const std::string& tenant, const std::string& source) {
  // Tenant-qualified key: identical sources under different tenants parse
  // into separate Session objects (separate prepare caches, separate
  // materialized views) — a tenant can never warm or observe another's
  // state. '\x1f' (ASCII unit separator) cannot appear in a tenant name.
  std::string key;
  key.reserve(tenant.size() + 1 + source.size());
  key.append(tenant);
  key.push_back('\x1f');
  key.append(source);
  std::shared_ptr<SessionEntry> entry;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    std::shared_ptr<SessionEntry>& slot = sessions_[key];
    if (slot == nullptr) slot = std::make_shared<SessionEntry>();
    entry = slot;
  }
  // Parse single-flight, outside the map lock: concurrent first requests
  // for the same source block here instead of serializing all sources.
  std::call_once(entry->once, [&] {
    Result<Session> opened = engine_.Open(source);
    if (opened.ok()) {
      entry->session = std::make_unique<Session>(std::move(opened).value());
    } else {
      entry->status = opened.status();
    }
  });
  return entry;
}

void QueryService::Process(Job* job) {
  const Kind& kind = *job->kind;
  const Request& request = job->request;
  Response& response = job->response;
  MetricsRegistry& metrics = this->metrics();
  Tracer& tracer = job->trace.tracer;

  response.queue_wait_ns = NowNs() - job->submit_ns;
  metrics.GetHistogram("service/queue_wait_ns")
      ->Record(response.queue_wait_ns);
  {
    // Retroactive: the wait was observed ending now, having started at
    // submission.
    Span queue = tracer.StartSpanAt(kind.queue_span, job->submit_ns);
  }

  if (request.cancel != nullptr && request.cancel->cancelled()) {
    Finish(job, Status::Cancelled("request cancelled before execution"));
    return;
  }
  if (job->deadline_ns >= 0 && NowNs() >= job->deadline_ns) {
    metrics.GetCounter("service/requests_expired_in_queue")->Increment();
    Finish(job, Status::DeadlineExceeded(
                    "deadline expired in the queue after " +
                    FormatDurationNs(response.queue_wait_ns)));
    return;
  }

  Span prepare_span = tracer.StartSpan(kind.prepare_span);
  const int64_t prepare_start_ns = NowNs();
  std::shared_ptr<SessionEntry> entry =
      GetSession(request.tenant, request.source);
  if (entry->session == nullptr) {
    prepare_span.End();
    Finish(job, entry->status);
    return;
  }

  // Prepare is single-flight in the session: the first request for this
  // fingerprint runs the Levy–Sagiv pipeline (its "sqo.*" spans landing
  // under this request's prepare span), concurrent ones block on the
  // in-flight entry, later ones hit the cache.
  SqoOptions sqo;
  sqo.disabled_passes = request.disabled_passes;
  sqo.tracer = &tracer;
  bool cache_hit = false;
  Result<const PreparedProgram*> prepared =
      entry->session->Prepare(sqo, &cache_hit);
  response.prepare_ns = NowNs() - prepare_start_ns;
  response.prepare_cache_hit = cache_hit;
  metrics.GetHistogram("service/prepare_ns")->Record(response.prepare_ns);
  prepare_span.SetAttr("cache_hit", cache_hit ? 1 : 0);
  prepare_span.End();

  Finish(job, (this->*kind.run)(job, *entry->session, prepared));
}

Status QueryService::Answer(Job* job, Session& session,
                            const Result<const PreparedProgram*>& prepared) {
  const Request& request = job->request;
  Response& response = job->response;
  MetricsRegistry& metrics = this->metrics();
  Tracer& tracer = job->trace.tracer;

  // Outside the rewriting's theory (e.g. IDB negation) Prepare reports
  // kUnsupported; SQO is an optimization, so the request is answered by
  // evaluating the original program P.
  const bool fallback =
      !prepared.ok() && prepared.status().code() == StatusCode::kUnsupported;
  if (fallback) {
    metrics.GetCounter("service/prepare_fallbacks")->Increment();
  } else if (!prepared.ok()) {
    return prepared.status();
  } else {
    job->prepared = prepared.value();
    for (const PassRunInfo& info : job->prepared->report.pass_runs) {
      if (info.ran()) ++response.passes_ran;
    }
  }

  // Load-only requests (the front-end's LoadProgram) stop here: the unit
  // parsed and the optimizer pipeline ran (or the fallback was noted), so
  // later queries on this session hit the plan cache.
  if (request.load_only) {
    response.optimized = !fallback;
    response.snapshot_version = 0;
    return Status::Ok();
  }

  // Materialized-view fast path: copy the warm answers out under the
  // view's shared lock instead of evaluating. The first such request pays
  // the initial fixpoint (inside Materialize); the fallback path cannot
  // serve from a view (no prepared program), so it evaluates below.
  if (request.materialized && !fallback) {
    // Delta batches prepare under the default passes, so they maintain
    // only that view; the view of an ablated plan would never move.
    if (!request.disabled_passes.empty()) {
      return Status::InvalidArgument(
          "disabled_passes cannot apply to a view-served query: delta "
          "batches maintain only the session's default view");
    }
    Span view_span = tracer.StartSpan("request.view");
    const int64_t exec_start_ns = NowNs();
    Result<MaterializedView*> view = session.Materialize(*job->prepared);
    if (!view.ok()) return view.status();
    job->view = view.value();
    response.answers = job->view->Answers(&response.snapshot_version);
    response.execute_ns = NowNs() - exec_start_ns;
    metrics.GetHistogram("service/execute_ns")->Record(response.execute_ns);
    metrics.GetCounter("service/view_serves")->Increment();
    view_span.SetAttr("version", response.snapshot_version);
    view_span.SetAttr("answers",
                      static_cast<int64_t>(response.answers.size()));
    view_span.End();
    response.served_from_view = true;
    response.optimized = true;
    if (request.want_explain) {
      ExplainReport explain = BuildExplainReport(
          job->prepared->report, job->prepared->compiled.get());
      AttachMaintenance(job->view->totals(), job->view->last_batch(),
                        job->view->batches_applied(), &explain);
      response.explain_json = explain.ToJson();
    }
    return Status::Ok();
  }

  // Every request reads the session's frozen shared base snapshot — the
  // per-request EDB copy is gone. Freeze makes concurrent lazy index
  // builds safe; evaluation writes only to its own IDB/delta relations.
  const Database& edb = session.SharedEdb();

  const bool slow_armed = options_.slow_query_ms >= 0;
  EvalOptions eval;
  eval.cancel = request.cancel.get();
  eval.deadline_ns = job->deadline_ns;
  eval.tracer = &tracer;
  eval.threads = options_.eval_threads;
  ParallelEvalStats parallel_stats;
  if (request.want_explain) eval.parallel_stats = &parallel_stats;
  // Per-rule profiles feed the slow-query log's EXPLAIN summary and the
  // traced response; untraced fast-path requests skip the clock reads.
  eval.profile_rules = slow_armed;
  std::vector<RuleProfile>* profiles =
      slow_armed || request.trace || request.want_explain ? &job->profiles
                                                          : nullptr;

  Span execute_span = tracer.StartSpan("request.execute");
  const int64_t exec_start_ns = NowNs();
  Result<std::vector<Tuple>> answers =
      fallback ? session.ExecuteOriginal(edb, eval, &response.stats, profiles)
               : session.Execute(*job->prepared, edb, eval, &response.stats,
                                 profiles);
  response.execute_ns = NowNs() - exec_start_ns;
  metrics.GetHistogram("service/execute_ns")->Record(response.execute_ns);
  execute_span.End();

  if (!answers.ok()) return answers.status();
  response.answers = std::move(answers).value();
  response.optimized = !fallback;
  response.snapshot_version = 0;  // the immutable base snapshot
  if (request.want_explain && job->prepared != nullptr) {
    ExplainReport explain = BuildExplainReport(job->prepared->report,
                                               job->prepared->compiled.get());
    AttachRuntime(job->prepared->report, response.stats, job->profiles,
                  static_cast<int64_t>(response.answers.size()),
                  response.execute_ns, &explain);
    AttachParallel(parallel_stats, &explain);
    response.explain_json = explain.ToJson();
  }
  return Status::Ok();
}

Status QueryService::Maintain(Job* job, Session& session,
                              const Result<const PreparedProgram*>& prepared) {
  // Maintenance has no original-program fallback: a view exists only for a
  // prepared (rewritten) program, so Prepare errors fail the batch.
  if (!prepared.ok()) return prepared.status();
  DeltaResponse& batch = job->batch;
  Tracer& tracer = job->trace.tracer;

  Span materialize_span = tracer.StartSpan("delta.materialize");
  const int64_t materialize_start_ns = NowNs();
  Result<MaterializedView*> view = session.Materialize(*prepared.value());
  batch.materialize_ns = NowNs() - materialize_start_ns;
  materialize_span.End();
  if (!view.ok()) return view.status();

  Span maintain_span = tracer.StartSpan("delta.maintain");
  const int64_t maintain_start_ns = NowNs();
  Result<MaintainStats> stats = view.value()->ApplyDelta(job->delta);
  batch.maintain_ns = NowNs() - maintain_start_ns;
  metrics().GetHistogram("service/apply_delta_ns")->Record(batch.maintain_ns);
  if (!stats.ok()) return stats.status();
  batch.stats = stats.value();
  job->response.snapshot_version = batch.stats.version;
  maintain_span.SetAttr("version", batch.stats.version);
  maintain_span.SetAttr("recomputed", batch.stats.recomputed ? 1 : 0);
  maintain_span.SetAttr("idb_delta",
                        batch.stats.idb_inserted + batch.stats.idb_deleted);
  return Status::Ok();
}

void QueryService::Finish(Job* job, Status status) {
  const Kind& kind = *job->kind;
  const std::string& tenant = job->request.tenant;
  Response& response = job->response;
  MetricsRegistry& metrics = this->metrics();
  Tracer& tracer = job->trace.tracer;

  response.status = std::move(status);
  const StatusCode code = response.status.code();
  const char* outcome = kind.failed;
  if (code == StatusCode::kOk) outcome = kind.completed;
  if (code == StatusCode::kCancelled) outcome = kind.cancelled;
  if (code == StatusCode::kDeadlineExceeded) outcome = kind.deadline_exceeded;
  metrics.GetCounter(outcome)->Increment();

  const int64_t total_ns = NowNs() - job->submit_ns;
  if (!tenant.empty()) {
    metrics
        .GetCounter(TenantMetric(tenant, response.status.ok() ? "completed"
                                                              : "errors"))
        ->Increment();
    metrics.GetHistogram(TenantMetric(tenant, "latency_ns"))->Record(total_ns);
  }

  // Slow requests (and slow maintenance batches) land in the event ring,
  // joinable with their span tree by trace id.
  const bool is_slow = options_.slow_query_ms >= 0 &&
                       total_ns >= options_.slow_query_ms * 1'000'000;
  LogEvent slow = RequestEvent(job->trace, kind.slow_event);
  if (is_slow) {
    slow.fields.emplace_back("total_ns", total_ns);
    slow.fields.emplace_back("queue_wait_ns", response.queue_wait_ns);
  }
  job->root_span.SetAttr("status_code", static_cast<int64_t>(code));
  kind.report(*job, job->root_span, is_slow ? &slow : nullptr);
  job->root_span.End();
  if (tracer.enabled()) response.spans = tracer.TakeSpans();

  if (!response.status.ok()) {
    const std::string message = std::string(StatusCodeName(code)) + ": " +
                                response.status.message();
    LogEvent event = RequestEvent(job->trace, "request_error");
    event.fields.emplace_back("code", static_cast<int64_t>(code));
    event.fields.emplace_back("total_ns", total_ns);
    if (kind.delta_event) event.fields.emplace_back("delta", 1);
    event.message = message;
    event_log_.Append(std::move(event));
    slow.message = message;
  }
  if (is_slow) {
    metrics.GetCounter("service/slow_queries")->Increment();
    event_log_.Append(std::move(slow));
  }

  job->deliver(*job);
}

}  // namespace sqod
