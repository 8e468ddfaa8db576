#include "src/engine/view.h"

#include <memory>
#include <utility>

#include "src/eval/sorted_rows.h"

namespace sqod {

namespace {

Database CopyLive(const Database& db) {
  Database out;
  for (const auto& [pred, rel] : db.relations()) {
    Relation* dst = out.FindOrCreate(pred, rel.arity());
    for (TupleRef t : rel.rows()) dst->Insert(t);
  }
  return out;
}

}  // namespace

Result<std::unique_ptr<MaterializedView>> MaterializedView::Create(
    const PreparedProgram& prepared, Database base) {
  Result<MaintenancePlan> plan = BuildMaintenancePlan(prepared.program());
  if (!plan.ok()) return plan.status();
  EvalOptions eval;
  eval.compiled = prepared.compiled.get();
  Result<MaterializedState> state = MaterializeState(
      prepared.program(), plan.value(), std::move(base), eval);
  if (!state.ok()) return state.status();

  auto view = std::unique_ptr<MaterializedView>(new MaterializedView());
  view->prepared_ = &prepared;
  view->plan_ = plan.take();
  view->state_ = state.take();
  return view;
}

int64_t MaterializedView::version() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return state_.version;
}

std::vector<Tuple> MaterializedView::Answers(int64_t* version) const {
  FlatRows rows;
  {
    // Only the flat copy runs under the lock; sorting and building the
    // tuples happen after writers may proceed.
    std::shared_lock<std::shared_mutex> lock(mu_);
    if (version != nullptr) *version = state_.version;
    const PredId query = program().query();
    const Relation* rel = state_.idb.Find(query);
    if (rel == nullptr) rel = state_.edb.Find(query);  // EDB-only query
    if (rel != nullptr) rows = CopyLiveRows(*rel);
  }
  return SortRows(rows);
}

Result<MaintainStats> MaterializedView::ApplyDelta(const FactDelta& delta) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  ApplyDeltaOptions options;
  options.eval.compiled = prepared_->compiled.get();
  Result<MaintainStats> stats =
      ApplyDeltaToState(program(), plan_, delta, options, &state_);
  if (stats.ok()) {
    last_ = stats.value();
    totals_.Accumulate(last_);
    ++batches_;
  }
  return stats;
}

MaintainStats MaterializedView::last_batch() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return last_;
}

MaintainStats MaterializedView::totals() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return totals_;
}

int64_t MaterializedView::batches_applied() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return batches_;
}

Database MaterializedView::SnapshotIdb() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return CopyLive(state_.idb);
}

Database MaterializedView::SnapshotEdb() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return CopyLive(state_.edb);
}

}  // namespace sqod
