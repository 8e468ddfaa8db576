// A deliberately tiny reference evaluator: the answer oracle of the
// evaluator, IVM and property suites. Naive fixpoint per stratum, nested
// loops over std::set relations, no indexes, no plans, no bytecode. It
// shares nothing with src/eval beyond reading the input Database; the
// stratification comes from Program::Stratify.

#ifndef SQOD_TESTS_REFERENCE_EVAL_H_
#define SQOD_TESTS_REFERENCE_EVAL_H_

#include <algorithm>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "src/ast/program.h"
#include "src/base/check.h"
#include "src/eval/database.h"

namespace sqod {
namespace reference {

using Facts = std::map<PredId, std::set<Tuple>>;
// Variable bindings in binding order; a join level truncates back to its
// entry size when it moves to the next candidate tuple.
using Binding = std::vector<std::pair<VarId, Value>>;

inline const Value* Lookup(VarId v, const Binding& b) {
  for (const auto& [var, value] : b) {
    if (var == v) return &value;
  }
  return nullptr;
}

inline const Value& Resolve(const Term& t, const Binding& b) {
  return t.is_const() ? t.value() : *Lookup(t.var(), b);
}

inline Tuple Ground(const Atom& atom, const Binding& b) {
  Tuple out;
  for (const Term& t : atom.args()) out.push_back(Resolve(t, b));
  return out;
}

// Extends `b` so that `atom` matches `t`; false on a mismatch.
inline bool Match(const Atom& atom, const Tuple& t, Binding* b) {
  for (size_t i = 0; i < t.size(); ++i) {
    const Term& term = atom.args()[i];
    const Value* bound =
        term.is_const() ? &term.value() : Lookup(term.var(), *b);
    if (bound == nullptr) {
      b->emplace_back(term.var(), t[i]);
    } else if (*bound != t[i]) {
      return false;
    }
  }
  return true;
}

// Every match of rule.body's positive literals from `k` on that also
// passes the negations and comparisons adds its head tuple to `out`.
inline void Join(const Rule& rule, size_t k, const Facts& db, Binding* b,
                 std::set<Tuple>* out) {
  while (k < rule.body.size() && rule.body[k].negated) ++k;
  if (k == rule.body.size()) {
    for (const Literal& l : rule.body) {
      auto it = db.find(l.atom.pred());
      if (l.negated && it != db.end() &&
          it->second.count(Ground(l.atom, *b)) > 0) {
        return;
      }
    }
    for (const Comparison& c : rule.comparisons) {
      if (!EvalCmp(Resolve(c.lhs, *b), c.op, Resolve(c.rhs, *b))) return;
    }
    out->insert(Ground(rule.head, *b));
    return;
  }
  auto it = db.find(rule.body[k].atom.pred());
  if (it == db.end()) return;
  const size_t mark = b->size();
  for (const Tuple& t : it->second) {
    if (Match(rule.body[k].atom, t, b)) Join(rule, k + 1, db, b, out);
    b->resize(mark);
  }
}

// The IDB of `program` over the live tuples of `edb`, per predicate
// (predicates with no tuples are absent).
inline Facts Evaluate(const Program& program, const Database& edb) {
  const std::set<PredId> idb_preds = program.IdbPreds();
  Facts db;
  for (const auto& [pred, rel] : edb.relations()) {
    if (idb_preds.count(pred) > 0) continue;
    for (TupleRef t : rel.rows()) db[pred].insert(t.Materialize());
  }
  Result<std::map<PredId, int>> strata = program.Stratify();
  SQOD_CHECK_MSG(strata.ok(), strata.status().message().c_str());
  int num_strata = 0;
  for (const auto& [pred, s] : strata.value()) {
    num_strata = std::max(num_strata, s + 1);
  }
  for (int s = 0; s < num_strata; ++s) {
    for (bool changed = true; changed;) {
      changed = false;
      for (const Rule& rule : program.rules()) {
        if (strata.value().at(rule.head.pred()) != s) continue;
        std::set<Tuple> heads;
        Binding b;
        Join(rule, 0, db, &b, &heads);
        for (const Tuple& t : heads) {
          changed |= db[rule.head.pred()].insert(t).second;
        }
      }
    }
  }
  Facts idb;
  for (PredId pred : idb_preds) {
    auto it = db.find(pred);
    if (it != db.end() && !it->second.empty()) idb[pred] = it->second;
  }
  return idb;
}

// The query predicate's tuples, sorted like EvaluateQuery's answers.
inline std::vector<Tuple> Query(const Program& program, const Database& edb) {
  Facts idb = Evaluate(program, edb);
  const std::set<Tuple>& answers = idb[program.query()];
  return std::vector<Tuple>(answers.begin(), answers.end());
}

}  // namespace reference
}  // namespace sqod

#endif  // SQOD_TESTS_REFERENCE_EVAL_H_
