#include "src/eval/evaluator.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>

#include "src/base/check.h"
#include "src/eval/bytecode.h"
#include "src/eval/executor.h"
#include "src/eval/kernel.h"
#include "src/eval/sorted_rows.h"
#include "src/obs/export.h"

namespace sqod {

EvalStats EvalStats::FromProfiles(int64_t iterations,
                                  const std::vector<RuleProfile>& profiles) {
  EvalStats stats;
  stats.iterations = iterations;
  for (const RuleProfile& p : profiles) {
    stats.rule_firings += p.firings;
    stats.tuples_derived += p.derived;
    stats.duplicate_derivations += p.duplicates;
    stats.join_probes += p.probes;
    stats.comparison_checks += p.cmp_checks;
  }
  return stats;
}

std::string EvalStats::ToString() const {
  return "iterations=" + std::to_string(iterations) +
         " firings=" + std::to_string(rule_firings) +
         " derived=" + std::to_string(tuples_derived) +
         " duplicates=" + std::to_string(duplicate_derivations) +
         " probes=" + std::to_string(join_probes) +
         " cmp_checks=" + std::to_string(comparison_checks);
}

std::string RenderRuleProfileTable(const std::vector<RuleProfile>& profiles) {
  std::vector<const RuleProfile*> active;
  for (const RuleProfile& p : profiles) {
    if (p.firings > 0 || p.probes > 0 || p.cmp_checks > 0) {
      active.push_back(&p);
    }
  }
  std::sort(active.begin(), active.end(),
            [](const RuleProfile* a, const RuleProfile* b) {
              if (a->time_ns != b->time_ns) return a->time_ns > b->time_ns;
              if (a->firings != b->firings) return a->firings > b->firings;
              return a->rule_index < b->rule_index;
            });
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line), "%5s  %-28s %10s %10s %8s %12s %10s\n",
                "rule", "head", "firings", "derived", "dup%", "probes",
                "time");
  out += line;
  for (const RuleProfile* p : active) {
    std::string head = p->head.size() > 28 ? p->head.substr(0, 25) + "..."
                                           : p->head;
    std::snprintf(line, sizeof(line),
                  "%5d  %-28s %10lld %10lld %7.1f%% %12lld %10s\n",
                  p->rule_index, head.c_str(),
                  static_cast<long long>(p->firings),
                  static_cast<long long>(p->derived),
                  100.0 * p->duplicate_rate(),
                  static_cast<long long>(p->probes),
                  p->time_ns > 0 ? FormatDurationNs(p->time_ns).c_str() : "-");
    out += line;
  }
  return out;
}

namespace {

// Merges `src` into `dst`; returns the number of new tuples.
int64_t MergeInto(const Database& src, Database* dst) {
  int64_t added = 0;
  for (const auto& [pred, rel] : src.relations()) {
    for (TupleRef t : rel.rows()) {
      if (dst->Insert(pred, t)) ++added;
    }
  }
  return added;
}

}  // namespace

Evaluator::Evaluator(const Program& program, EvalOptions options)
    : program_(program), options_(options) {}

Result<Database> Evaluator::Evaluate(const Database& edb) {
  stats_ = EvalStats();
  const std::vector<Rule>& rules = program_.rules();
  profiles_.assign(rules.size(), RuleProfile());
  for (size_t r = 0; r < rules.size(); ++r) {
    profiles_[r].rule_index = static_cast<int>(r);
    profiles_[r].head = PredName(rules[r].head.pred());
  }
  int64_t iterations = 0;

  Tracer* tracer = options_.tracer;
  const bool tracing = tracer != nullptr && tracer->enabled();
  // Counters are always kept (they redirect existing increments); only the
  // wall-clock reads are gated, so the disabled path stays branch-cheap.
  const bool timed =
      options_.profile_rules || tracing || options_.metrics != nullptr;

  auto start_span = [&](const char* name) {
    return tracing ? tracer->StartSpan(name) : Span();
  };

  // The caller-provided artifact (PreparedProgram's cache), or one lowered
  // on the fly. Either way it carries the stratification and IDB
  // classification, so Stratify() runs at most once per program.
  const CompiledProgram* compiled = options_.compiled;
  CompiledProgram local_compiled;
  int64_t compile_ns = 0;
  if (compiled == nullptr) {
    Result<CompiledProgram> c = CompileProgram(program_);
    if (!c.ok()) return c.status();
    local_compiled = std::move(c.value());
    compiled = &local_compiled;
    compile_ns = local_compiled.compile_ns;
  }

  // One register file reused across every serial rule activation; nothing
  // below allocates per probe.
  std::vector<Value> regs(compiled->max_regs);
  std::vector<const Relation*> level_rels;
  std::vector<const Relation*> neg_rels;
  level_rels.reserve(compiled->max_levels);
  // Per-kernel activation counts, published at finish.
  int64_t kernel_runs[kNumKernels] = {0, 0, 0};

  Database total;
  int64_t derived_count = 0;
  bool overflow = false;

  VmContext vm;
  vm.edb = &edb;
  vm.idb_total = &total;
  vm.use_indexes = options_.use_indexes;
  vm.max_derived = options_.max_derived;
  vm.derived_count = &derived_count;
  vm.overflow = &overflow;
  vm.regs = &regs;
  vm.level_rels = &level_rels;
  vm.neg_rels = &neg_rels;

  // Cooperative interruption, polled once per fixpoint iteration. The poll
  // is two loads (plus a clock read only when a deadline is armed), so the
  // serving layer can cancel or deadline long evaluations without the
  // un-interrupted path paying for it.
  auto interrupted = [&]() -> Status {
    if (options_.cancel != nullptr && options_.cancel->cancelled()) {
      return Status::Cancelled("evaluation cancelled by caller");
    }
    if (options_.deadline_ns >= 0 && NowNs() >= options_.deadline_ns) {
      return Status::DeadlineExceeded("evaluation deadline exceeded");
    }
    return Status::Ok();
  };

  // ---- Parallel evaluation (docs/evaluator.md, "Parallel evaluation") ----
  // With threads = P > 1, each semi-naive iteration's plans run as
  // (plan, partition) tasks: a plan whose first instruction opens join
  // level 0 is hash-partitioned P ways over that level's rows; other plans
  // (ground comparisons precede their first join) run as one task so no
  // pre-join work is repeated per partition. Tasks derive into private
  // scratch databases; the coordinator merges them at the iteration
  // barrier, keeping every shared index single-writer. threads = 1 and
  // naive iteration run the plans serially.
  const bool parallel_on = options_.semi_naive && options_.threads > 1;
  ParallelEvalStats pstats;
  pstats.threads = std::max(1, options_.threads);
  std::unique_ptr<EvalExecutor> owned_executor;
  EvalExecutor* executor = options_.executor;
  if (parallel_on) {
    pstats.partition_derived.assign(options_.threads, 0);
    if (executor == nullptr) {
      // No shared executor provided (standalone EvaluateQuery): a private
      // one for this evaluation. threads - 1 workers, because the
      // coordinating thread executes tasks too.
      owned_executor = std::make_unique<EvalExecutor>(options_.threads - 1);
      executor = owned_executor.get();
    }
  }

  // One (plan, partition) unit of parallel work, with task-private
  // derivation scratch and counters. Merged in deterministic (plan,
  // partition) order at the barrier.
  struct ParTask {
    const CompiledRule* plan = nullptr;
    int parts = 1;        // partition count of this plan (1 = unpartitioned)
    int part = 0;         // this task's partition index
    Database scratch;     // head tuples derived by this task
    RuleProfile prof;     // this task's counters, merged at the barrier
    int64_t derived = 0;  // task-local derivation count (budget check)
    bool overflow = false;
    int kernel = -1;      // KernelId run, -1 = skipped (empty level 0)
    int64_t t0 = 0, t1 = 0;  // task wall clock (skew, spans)
  };

  // Runs one semi-naive iteration's plan set as partition tasks into
  // `fresh`: warm indexes, fire tasks, merge at the barrier.
  auto run_parallel = [&](const std::vector<const CompiledRule*>& plans,
                          const Database* delta_db, Database* fresh,
                          int stratum) {
    const int64_t iter_t0 = NowNs();
    const int P = options_.threads;

    // Warm every (relation, mask) pair the tasks will probe. Index builds
    // are the one lazy mutation Probe performs; doing them here, on the
    // coordinator, keeps the parallel phase free of shared writes.
    if (options_.use_indexes) {
      vm.idb_delta = delta_db;
      for (const CompiledRule* cr : plans) {
        ResolveRelations(*cr, &vm);
        for (size_t k = 0; k < cr->levels.size(); ++k) {
          if (cr->levels[k].mask != 0 && level_rels[k] != nullptr) {
            level_rels[k]->WarmIndex(cr->levels[k].mask);
          }
        }
      }
    }

    std::vector<ParTask> tasks;
    tasks.reserve(plans.size() * static_cast<size_t>(P));
    for (const CompiledRule* cr : plans) {
      const bool partitionable =
          !cr->levels.empty() && cr->levels[0].open_ip == 0;
      const int parts = partitionable ? P : 1;
      for (int k = 0; k < parts; ++k) {
        ParTask t;
        t.plan = cr;
        t.parts = parts;
        t.part = k;
        tasks.push_back(std::move(t));
      }
    }

    // Per-task derivation budget: the remaining global allowance. Task
    // sums may overshoot max_derived by up to a factor of P before the
    // barrier check catches it — the guard still fires, just later.
    const int64_t local_budget =
        options_.max_derived >= 0
            ? std::max<int64_t>(0, options_.max_derived - derived_count)
            : -1;

    std::atomic<bool> stop{false};
    auto run_task = [&](int ti) {
      ParTask& t = tasks[ti];
      // Partition-task boundary: the cancellation/deadline granularity of
      // parallel runs (the serving layer's admission contract).
      if (stop.load(std::memory_order_acquire)) return;
      if ((options_.cancel != nullptr && options_.cancel->cancelled()) ||
          (options_.deadline_ns >= 0 && NowNs() >= options_.deadline_ns)) {
        stop.store(true, std::memory_order_release);
        return;
      }
      t.t0 = NowNs();
      std::vector<Value> task_regs(compiled->max_regs);
      std::vector<const Relation*> task_level_rels;
      std::vector<const Relation*> task_neg_rels;
      VmContext tvm;
      tvm.edb = &edb;
      tvm.idb_total = &total;
      tvm.idb_delta = delta_db;
      tvm.out_new = &t.scratch;
      tvm.use_indexes = options_.use_indexes;
      tvm.max_derived = local_budget;
      tvm.profile = &t.prof;
      tvm.derived_count = &t.derived;
      tvm.overflow = &t.overflow;
      tvm.regs = &task_regs;
      tvm.level_rels = &task_level_rels;
      tvm.neg_rels = &task_neg_rels;
      tvm.part_count = t.parts;
      tvm.part_index = t.part;
      if (ResolveRelations(*t.plan, &tvm)) {
        t.kernel = static_cast<int>(
            RunCompiled(*t.plan, &tvm, options_.use_kernels));
      }
      if (t.overflow) stop.store(true, std::memory_order_release);
      t.t1 = NowNs();
    };

    executor->Run(static_cast<int>(tasks.size()), run_task);

    // Iteration barrier: merge task scratch into the iteration's fresh set
    // in (plan, partition) order. A tuple derived by several tasks was
    // counted derived by each; the failed Insert here reclassifies every
    // loser as a duplicate, restoring the serial per-rule counters exactly
    // (serially, the loser would have found the tuple in out_new).
    int64_t min_task_ns = INT64_MAX, max_task_ns = -1;
    for (ParTask& t : tasks) {
      for (const auto& [pred, rel] : t.scratch.relations()) {
        for (TupleRef row : rel.rows()) {
          if (!fresh->Insert(pred, row)) {
            --t.prof.derived;
            ++t.prof.duplicates;
          }
        }
      }
      RuleProfile& prof = profiles_[t.plan->rule_index];
      prof.firings += t.prof.firings;
      prof.derived += t.prof.derived;
      prof.duplicates += t.prof.duplicates;
      prof.probes += t.prof.probes;
      prof.cmp_checks += t.prof.cmp_checks;
      prof.ops += t.prof.ops;
      if (timed && t.t1 > 0) prof.time_ns += t.t1 - t.t0;
      derived_count += t.prof.derived;
      if (t.kernel >= 0) ++kernel_runs[t.kernel];
      if (t.overflow) overflow = true;
      if (t.parts > 1) {
        pstats.partition_derived[t.part] += t.prof.derived;
        if (t.t1 > 0) {
          min_task_ns = std::min(min_task_ns, t.t1 - t.t0);
          max_task_ns = std::max(max_task_ns, t.t1 - t.t0);
        }
      }
    }
    if (options_.max_derived >= 0 && derived_count > options_.max_derived) {
      overflow = true;
    }
    pstats.partition_tasks += static_cast<int64_t>(tasks.size());
    ++pstats.parallel_iterations;
    if (max_task_ns >= 0) {
      pstats.skew_max_ns =
          std::max(pstats.skew_max_ns, max_task_ns - min_task_ns);
    }
    if (options_.metrics != nullptr) {
      options_.metrics
          ->GetHistogram(options_.metrics_prefix + "/stratum/" +
                         std::to_string(stratum) + "/parallel_iteration_ns")
          ->Record(NowNs() - iter_t0);
    }

    // The Tracer is single-threaded by contract, so tasks never touch it;
    // the coordinator emits the per-partition spans post hoc with the
    // timestamps the tasks observed.
    if (tracing) {
      for (const ParTask& t : tasks) {
        if (t.t1 == 0) continue;  // stopped at the task boundary: no span
        Span span = tracer->StartSpanAt("eval.partition", t.t0);
        span.SetAttr("rule", t.plan->rule_index);
        span.SetAttr("partition", t.part);
        span.SetAttr("partitions", t.parts);
        span.SetAttr("derived", t.prof.derived);
        span.SetAttr("probes", t.prof.probes);
        span.EndAt(t.t1);
      }
    }
  };

  // Runs one plan serially through its kernel, with per-rule time
  // attribution and a span.
  auto run_serial = [&](const CompiledRule& cr) {
    if (overflow) return;
    RuleProfile* profile = &profiles_[cr.rule_index];
    vm.profile = profile;
    Span span;
    if (tracing) {
      span = tracer->StartSpan("eval.rule");
      span.SetAttr("rule", cr.rule_index);
      span.SetAttr("kernel", static_cast<int64_t>(cr.kernel));
      if (cr.delta_subgoal >= 0) {
        span.SetAttr("delta_subgoal", cr.delta_subgoal);
      }
    }
    int64_t before_firings = profile->firings;
    int64_t before_derived = profile->derived;
    int64_t t0 = timed ? NowNs() : 0;
    if (ResolveRelations(cr, &vm)) {
      KernelId ran = RunCompiled(cr, &vm, options_.use_kernels);
      ++kernel_runs[static_cast<int>(ran)];
    }
    if (timed) profile->time_ns += NowNs() - t0;
    if (tracing) {
      span.SetAttr("firings", profile->firings - before_firings);
      span.SetAttr("derived", profile->derived - before_derived);
    }
  };

  Histogram* iteration_hist =
      options_.metrics == nullptr
          ? nullptr
          : options_.metrics->GetHistogram(options_.metrics_prefix +
                                           "/iteration_ns");

  // The iteration step every path shares (naive rounds, semi-naive
  // iteration 0 and delta iterations, serial or partitioned): poll for
  // interruption, run `plans` against `delta_in` (null outside delta
  // iterations) into a fresh set, merge it into `total`. On success
  // `*fresh_out` holds the iteration's new tuples.
  auto iterate = [&](const std::vector<const CompiledRule*>& plans,
                     const Database* delta_in, Database* fresh_out,
                     int stratum) -> Status {
    SQOD_RETURN_IF_ERROR(interrupted());
    ++iterations;
    Span iter_span = start_span("eval.iteration");
    iter_span.SetAttr("iteration", iterations);
    const int64_t t0 = timed ? NowNs() : 0;
    Database fresh;
    if (parallel_on) {
      run_parallel(plans, delta_in, &fresh, stratum);
      // Tasks stop early at a cancelled/expired boundary: the iteration
      // is incomplete, so the poll must come before the merge.
      SQOD_RETURN_IF_ERROR(interrupted());
    } else {
      vm.out_new = &fresh;
      vm.idb_delta = delta_in;
      for (const CompiledRule* cr : plans) run_serial(*cr);
    }
    if (overflow) {
      return Status::ResourceExhausted("evaluation exceeded max_derived=" +
                                       std::to_string(options_.max_derived));
    }
    const int64_t added = MergeInto(fresh, &total);
    iter_span.SetAttr("new_tuples", added);
    if (iteration_hist != nullptr) iteration_hist->Record(NowNs() - t0);
    *fresh_out = std::move(fresh);
    return Status::Ok();
  };

  // Publishes counters and (when attached) registry metrics before any
  // return path, so stats are valid even on overflow errors.
  auto finish = [&] {
    stats_ = EvalStats::FromProfiles(iterations, profiles_);
    if (options_.parallel_stats != nullptr) *options_.parallel_stats = pstats;
    if (options_.metrics == nullptr) return;
    MetricsRegistry* m = options_.metrics;
    const std::string& p = options_.metrics_prefix;
    if (pstats.partition_tasks > 0) {
      m->GetCounter(p + "/partitions")->Add(pstats.threads);
      m->GetCounter(p + "/partition_tasks")->Add(pstats.partition_tasks);
      m->GetCounter(p + "/parallel_iterations")
          ->Add(pstats.parallel_iterations);
      m->GetCounter(p + "/partition_skew_max_ns")->Add(pstats.skew_max_ns);
    }
    m->GetCounter(p + "/iterations")->Add(stats_.iterations);
    m->GetCounter(p + "/rule_firings")->Add(stats_.rule_firings);
    m->GetCounter(p + "/tuples_derived")->Add(stats_.tuples_derived);
    m->GetCounter(p + "/duplicate_derivations")
        ->Add(stats_.duplicate_derivations);
    m->GetCounter(p + "/join_probes")->Add(stats_.join_probes);
    m->GetCounter(p + "/comparison_checks")->Add(stats_.comparison_checks);
    int64_t ops = 0;
    for (const RuleProfile& profile : profiles_) ops += profile.ops;
    m->GetCounter(p + "/bytecode_ops")->Add(ops);
    m->GetCounter(p + "/kernel_generic")
        ->Add(kernel_runs[static_cast<int>(KernelId::kGeneric)]);
    m->GetCounter(p + "/kernel_scan_filter_emit")
        ->Add(kernel_runs[static_cast<int>(KernelId::kScanFilterEmit)]);
    m->GetCounter(p + "/kernel_scan_probe_emit")
        ->Add(kernel_runs[static_cast<int>(KernelId::kScanProbeEmit)]);
    if (compile_ns > 0) m->GetCounter(p + "/compile_ns")->Add(compile_ns);
    for (const RuleProfile& profile : profiles_) {
      if (profile.firings == 0 && profile.probes == 0) continue;
      std::string base = p + "/rule/" +
                         std::to_string(profile.rule_index) + ":" +
                         profile.head;
      m->GetCounter(base + "/firings")->Add(profile.firings);
      m->GetCounter(base + "/derived")->Add(profile.derived);
      m->GetCounter(base + "/duplicates")->Add(profile.duplicates);
      m->GetCounter(base + "/probes")->Add(profile.probes);
      m->GetCounter(base + "/time_ns")->Add(profile.time_ns);
    }
  };

  Span eval_span = start_span("eval");

  // The stratum driver. Evaluate stratum by stratum: negated IDB subgoals
  // point strictly below and read the completed relations in `total`;
  // positive IDB subgoals of lower strata are static within this stratum
  // and read `total` too; only same-stratum positive IDB subgoals drive the
  // semi-naive deltas.
  for (int stratum = 0; stratum < static_cast<int>(compiled->strata.size());
       ++stratum) {
    const CompiledProgram::Stratum& st = compiled->strata[stratum];
    if (st.rule_indices.empty()) continue;

    Span stratum_span = start_span("eval.stratum");
    stratum_span.SetAttr("stratum", stratum);
    stratum_span.SetAttr("rules", static_cast<int64_t>(st.rule_indices.size()));

    std::vector<const CompiledRule*> first, delta_plans;
    Database delta;
    Status s;
    if (!options_.semi_naive) {
      // Naive: every rule over the full relations, until a round adds
      // nothing.
      for (const CompiledRule& cr : st.full) first.push_back(&cr);
      do {
        s = iterate(first, nullptr, &delta, stratum);
      } while (s.ok() && delta.TotalTuples() > 0);
    } else {
      // Semi-naive: iteration 0 runs the rules with no same-stratum IDB
      // subgoal; each later iteration runs one plan per (rule, same-stratum
      // delta subgoal) against the previous iteration's new tuples.
      for (int i : st.nonrecursive) first.push_back(&st.full[i]);
      for (const CompiledRule& cr : st.delta) delta_plans.push_back(&cr);
      s = iterate(first, nullptr, &delta, stratum);
      while (s.ok() && delta.TotalTuples() > 0) {
        const Database in = std::move(delta);
        s = iterate(delta_plans, &in, &delta, stratum);
      }
    }
    if (!s.ok()) {
      finish();
      return s;
    }
  }
  finish();
  if (tracing) {
    eval_span.SetAttr("iterations", stats_.iterations);
    eval_span.SetAttr("tuples_derived", stats_.tuples_derived);
  }
  return total;
}

Result<std::vector<Tuple>> EvaluateQuery(const Program& program,
                                         const Database& edb,
                                         EvalOptions options,
                                         EvalStats* stats,
                                         std::vector<RuleProfile>* profiles) {
  SQOD_CHECK_MSG(program.query() != -1, "program has no query predicate");
  Evaluator evaluator(program, options);
  Result<Database> idb = evaluator.Evaluate(edb);
  if (stats != nullptr) *stats = evaluator.stats();
  if (profiles != nullptr) *profiles = evaluator.rule_profiles();
  if (!idb.ok()) return idb.status();
  const Relation* rel = idb.value().Find(program.query());
  if (rel == nullptr) return std::vector<Tuple>();
  return SortedRows(*rel);
}

}  // namespace sqod
