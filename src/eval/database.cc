#include "src/eval/database.h"

#include <algorithm>

#include "src/base/check.h"
#include "src/eval/sorted_rows.h"

namespace sqod {

bool Database::Insert(PredId pred, const Value* vals, int arity) {
  return FindOrCreate(pred, arity)->Insert(vals, arity);
}

bool Database::InsertAtom(const Atom& fact) {
  SQOD_CHECK_MSG(fact.is_ground(), fact.ToString().c_str());
  Value vals[Relation::kMaxArity];
  int n = fact.arity();
  SQOD_CHECK_MSG(n <= Relation::kMaxArity, fact.ToString().c_str());
  for (int i = 0; i < n; ++i) vals[i] = fact.arg(i).value();
  return Insert(fact.pred(), vals, n);
}

bool Database::Erase(PredId pred, const Value* vals, int arity) {
  auto it = relations_.find(pred);
  if (it == relations_.end()) return false;
  SQOD_CHECK_MSG(it->second.arity() == arity, PredName(pred).c_str());
  return it->second.Erase(vals, arity);
}

bool Database::EraseAtom(const Atom& fact) {
  SQOD_CHECK_MSG(fact.is_ground(), fact.ToString().c_str());
  Value vals[Relation::kMaxArity];
  int n = fact.arity();
  SQOD_CHECK_MSG(n <= Relation::kMaxArity, fact.ToString().c_str());
  for (int i = 0; i < n; ++i) vals[i] = fact.arg(i).value();
  return Erase(fact.pred(), vals, n);
}

bool Database::Contains(PredId pred, const Value* vals, int arity) const {
  const Relation* rel = Find(pred);
  return rel != nullptr && rel->Contains(vals, arity);
}

const Relation* Database::Find(PredId pred) const {
  auto it = relations_.find(pred);
  return it == relations_.end() ? nullptr : &it->second;
}

Relation* Database::FindOrCreate(PredId pred, int arity) {
  auto it = relations_.find(pred);
  if (it == relations_.end()) {
    SQOD_CHECK_MSG(!frozen_, "FindOrCreate on a frozen database");
    it = relations_.emplace(pred, Relation(arity)).first;
    if (versioned_) {
      it->second.EnableVersioning(version_);
      it->second.set_version(version_);
    }
  }
  SQOD_CHECK_MSG(it->second.arity() == arity, PredName(pred).c_str());
  return &it->second;
}

int64_t Database::TotalTuples() const {
  int64_t n = 0;
  for (const auto& [pred, rel] : relations_) n += rel.live_size();
  return n;
}

void Database::EnableVersioning(int64_t base_version) {
  versioned_ = true;
  version_ = base_version;
  for (auto& [pred, rel] : relations_) {
    rel.EnableVersioning(base_version);
    rel.set_version(base_version);
  }
}

void Database::SetVersion(int64_t v) {
  version_ = v;
  for (auto& [pred, rel] : relations_) rel.set_version(v);
}

void Database::Freeze() {
  frozen_ = true;
  for (auto& [pred, rel] : relations_) rel.Freeze();
}

std::string Database::ToString() const {
  // Deterministic output: predicates sorted by name, tuples sorted.
  std::vector<PredId> preds;
  for (const auto& [pred, rel] : relations_) preds.push_back(pred);
  std::sort(preds.begin(), preds.end(), [](PredId a, PredId b) {
    return PredName(a) < PredName(b);
  });
  std::string out;
  for (PredId pred : preds) {
    const Relation& rel = *Find(pred);
    for (const Tuple& row : SortedRows(rel)) {
      out += PredName(pred) + "(";
      for (size_t i = 0; i < row.size(); ++i) {
        if (i > 0) out += ", ";
        out += row[i].ToString();
      }
      out += ").\n";
    }
  }
  return out;
}

}  // namespace sqod
