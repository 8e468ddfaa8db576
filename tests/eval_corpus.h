// The evaluator test corpus: the programs and databases whose per-rule work
// counters are pinned in tests/golden/eval_counters.golden and whose
// answers eval_equiv_test checks against the reference evaluator.
//
//  * the named cases of the equivalence suite (Figure 1, GoodPath,
//    colored closure, stratified negation, repeated variables);
//  * the E2 bench slices CI runs (BM_E2_*_Size/500, BM_E2_*_Fraction/60),
//    original and rewritten, with the bench's own generators and seeds;
//  * the E4 slices CI runs (WideIc/3, AdornmentGrowthWithColors/2). E4
//    only prepares, so their programs (original and rewritten) are
//    evaluated over a small generated database;
//  * the 200-trial random-program fuzz sweep (MakeRandomUnit).
//
// `all_configs` cases are pinned at every (semi_naive, use_indexes) point;
// the bench slices only at the point their bench runs (the defaults).

#ifndef SQOD_TESTS_EVAL_CORPUS_H_
#define SQOD_TESTS_EVAL_CORPUS_H_

#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/base/check.h"
#include "src/parser/parser.h"
#include "src/sqo/optimizer.h"
#include "src/workload/graphs.h"
#include "src/workload/programs.h"

namespace sqod {
namespace corpus {

using FuzzRng = std::mt19937_64;

inline int RandInt(FuzzRng* rng, int lo, int hi) {  // inclusive
  return lo + static_cast<int>((*rng)() % (hi - lo + 1));
}

struct Case {
  Case(std::string l, Program p, Database d, bool all = true,
       std::string src = "")
      : label(std::move(l)),
        program(std::move(p)),
        edb(std::move(d)),
        all_configs(all),
        source(std::move(src)) {}

  std::string label;
  Program program;
  Database edb;
  bool all_configs;
  std::string source;  // fuzz cases: the generated unit, for diagnostics
};

inline Database FactsOf(const ParsedUnit& unit) {
  Database edb;
  for (const Atom& fact : unit.facts) edb.InsertAtom(fact);
  return edb;
}

inline Case FromSource(const std::string& label, const std::string& source) {
  Result<ParsedUnit> parsed = ParseUnit(source);
  SQOD_CHECK_MSG(parsed.ok(), parsed.status().message().c_str());
  return {label, parsed.value().program, FactsOf(parsed.value())};
}

inline Program Rewrite(const Program& program,
                       const std::vector<Constraint>& ics) {
  Result<SqoReport> report = OptimizeProgram(program, ics);
  SQOD_CHECK_MSG(report.ok(), report.status().message().c_str());
  return report.value().rewritten;
}

inline std::vector<Case> NamedCases() {
  std::vector<Case> out;

  {  // examples/figure1.dl: the a/b closure program with facts.
    std::ifstream in(std::string(SQOD_EXAMPLES_DIR) + "/figure1.dl");
    SQOD_CHECK(in.good());
    std::ostringstream source;
    source << in.rdbuf();
    out.push_back(FromSource("figure1", source.str()));
  }
  {  // GoodPath: linear recursion plus bound-key joins.
    Rng rng(20260808);
    GoodPathConfig config;
    config.nodes = 120;
    config.edges = 420;
    config.num_start = 8;
    config.num_end = 8;
    config.threshold = 30;
    out.push_back({"goodpath", MakeGoodPathProgram(),
                   MakeGoodPathWorkload(config, &rng)});
  }
  {  // k-colored transitive closure over random colored edges.
    Rng rng(20260808);
    ColoredClosure workload = MakeColoredClosure(3, 2, &rng);
    Database edb = MakeColoredEdges(3, 60, 200, workload.ics, &rng);
    out.push_back({"colored_closure", workload.program, std::move(edb)});
  }
  {  // Stratified IDB negation plus comparisons.
    Case c = FromSource("stratified_neg", R"(
      reach(X) :- start(X).
      reach(Y) :- reach(X), e(X, Y).
      dark(X) :- node(X), !reach(X).
      darkpair(X, Y) :- dark(X), e(X, Y), dark(Y), X < Y, !blocked(X).
      darkpair(X, Z) :- darkpair(X, Y), e(Y, Z), dark(Z), Y != Z.
      ?- darkpair.
    )");
    FuzzRng rng(7);
    const PredId node = InternPred("node"), start = InternPred("start"),
                 blocked = InternPred("blocked"), e = InternPred("e");
    for (int n = 0; n < 30; ++n) c.edb.Insert(node, {Value::Int(n)});
    c.edb.Insert(start, {Value::Int(0)});
    c.edb.Insert(start, {Value::Int(3)});
    c.edb.Insert(blocked, {Value::Int(17)});
    c.edb.Insert(blocked, {Value::Int(21)});
    for (int i = 0; i < 70; ++i) {
      c.edb.Insert(e, {Value::Int(RandInt(&rng, 0, 29)),
                       Value::Int(RandInt(&rng, 0, 29))});
    }
    out.push_back(std::move(c));
  }
  {  // Repeated variables inside one subgoal and across subgoals.
    Case c = FromSource("repeated_vars", R"(
      loop(X) :- e(X, X).
      tri(X, Y) :- e(X, Y), e(Y, X), X <= Y.
      chain(X, Z) :- loop(X), e(X, Z), e(Z, Z).
      ?- tri.
    )");
    FuzzRng rng(11);
    const PredId e = InternPred("e");
    for (int i = 0; i < 60; ++i) {
      c.edb.Insert(e, {Value::Int(RandInt(&rng, 0, 9)),
                       Value::Int(RandInt(&rng, 0, 9))});
    }
    out.push_back(std::move(c));
  }

  // E2 slices, as bench_e2_pushdown builds them.
  auto e2_edb = [](int nodes, int threshold, uint64_t seed) {
    Rng rng(seed);
    GoodPathConfig config;
    config.nodes = nodes;
    config.edges = nodes * 3;
    config.num_start = 25;
    config.num_end = 25;
    config.threshold = threshold;
    return MakeGoodPathWorkload(config, &rng);
  };
  const Program goodpath = MakeGoodPathProgram();
  out.push_back({"e2_original_size_500", goodpath, e2_edb(500, 250, 7),
                 false});
  out.push_back({"e2_rewritten_size_500",
                 Rewrite(goodpath, MakeMonotoneIcs(250)), e2_edb(500, 250, 7),
                 false});
  out.push_back({"e2_original_fraction_60", goodpath, e2_edb(1000, 600, 11),
                 false});
  out.push_back({"e2_rewritten_fraction_60",
                 Rewrite(goodpath, MakeMonotoneIcs(600)),
                 e2_edb(1000, 600, 11), false});

  // E4 slices, as bench_e4_scaling builds them, over generated databases.
  {
    Program ab = MakeAbClosureProgram();
    Constraint ic;  // WideIc/3: a chain of 3 alternating edges is forbidden
    for (int i = 0; i < 3; ++i) {
      ic.body.push_back(Literal::Pos(
          Atom(i % 2 == 0 ? "a" : "b",
               {Term::Var("V" + std::to_string(i)),
                Term::Var("V" + std::to_string(i + 1))})));
    }
    Rng rng(3);
    Database edb = MakeTwoColoredGraph(80, 240, 0.5, &rng);
    out.push_back({"e4_wide_ic_3_original", ab, edb, false});
    out.push_back({"e4_wide_ic_3_rewritten", Rewrite(ab, {ic}), edb, false});
  }
  {
    Rng rng(77);
    ColoredClosure cc = MakeColoredClosure(2, 2, &rng);
    Rng edb_rng(5);
    Database edb = MakeColoredEdges(2, 80, 240, cc.ics, &edb_rng);
    out.push_back({"e4_colors_2_original", cc.program, edb, false});
    out.push_back({"e4_colors_2_rewritten", Rewrite(cc.program, cc.ics), edb,
                   false});
  }
  return out;
}

// Generates a random safe program over EDB predicates e0/2, e1/2, f0/1 and
// IDB predicates p0..p2, plus random facts over a small constant domain.
// Safety by construction: head variables and negated/compared variables are
// drawn from the positive body's variables; negation targets EDB only.
inline std::string MakeRandomUnit(FuzzRng* rng) {
  const char* vars[] = {"X", "Y", "Z", "W"};
  const char* edb_binary[] = {"e0", "e1"};
  const char* cmp_ops[] = {"<", "<=", ">", ">=", "=", "!="};
  int num_idb = RandInt(rng, 1, 3);
  std::string src;

  for (int p = 0; p < num_idb; ++p) {
    int num_rules = RandInt(rng, 1, 3);
    for (int r = 0; r < num_rules; ++r) {
      // Positive body: 1-3 atoms over EDB and already-introduced IDB preds.
      int body_len = RandInt(rng, 1, 3);
      std::vector<std::string> body;
      std::vector<std::string> body_vars;
      for (int b = 0; b < body_len; ++b) {
        bool use_idb = p > 0 && RandInt(rng, 0, 2) == 0;
        std::string a1 = vars[RandInt(rng, 0, 3)];
        std::string a2 = vars[RandInt(rng, 0, 3)];
        body_vars.push_back(a1);
        if (use_idb) {
          body_vars.push_back(a2);
          body.push_back("p" + std::to_string(RandInt(rng, 0, p - 1)) + "(" +
                         a1 + ", " + a2 + ")");
        } else if (RandInt(rng, 0, 3) == 0) {
          body.push_back(std::string("f0(") + a1 + ")");
        } else {
          body_vars.push_back(a2);
          body.push_back(std::string(edb_binary[RandInt(rng, 0, 1)]) + "(" +
                         a1 + ", " + a2 + ")");
        }
      }
      // Optional safe EDB negation over bound variables.
      if (RandInt(rng, 0, 2) == 0) {
        body.push_back("!" + std::string(edb_binary[RandInt(rng, 0, 1)]) +
                       "(" + body_vars[RandInt(rng, 0, body_vars.size() - 1)] +
                       ", " +
                       body_vars[RandInt(rng, 0, body_vars.size() - 1)] + ")");
      }
      // Optional comparison over bound variables (or a constant).
      if (RandInt(rng, 0, 2) == 0) {
        std::string rhs = RandInt(rng, 0, 1) == 0
                              ? std::to_string(RandInt(rng, 0, 4))
                              : body_vars[RandInt(rng, 0,
                                                  body_vars.size() - 1)];
        body.push_back(body_vars[RandInt(rng, 0, body_vars.size() - 1)] +
                       " " + cmp_ops[RandInt(rng, 0, 5)] + " " + rhs);
      }
      // Head over bound variables; recursion allowed via same-pred heads.
      std::string h1 = body_vars[RandInt(rng, 0, body_vars.size() - 1)];
      std::string h2 = body_vars[RandInt(rng, 0, body_vars.size() - 1)];
      src += "p" + std::to_string(p) + "(" + h1 + ", " + h2 + ") :- ";
      for (size_t b = 0; b < body.size(); ++b) {
        if (b > 0) src += ", ";
        src += body[b];
      }
      src += ".\n";
    }
  }

  // Random EDB over a 5-constant domain (finite Herbrand base, so every
  // configuration reaches the same fixpoint without overflow guards).
  int facts = RandInt(rng, 3, 14);
  for (int f = 0; f < facts; ++f) {
    src += std::string(edb_binary[RandInt(rng, 0, 1)]) + "(" +
           std::to_string(RandInt(rng, 0, 4)) + ", " +
           std::to_string(RandInt(rng, 0, 4)) + ").\n";
  }
  int unary = RandInt(rng, 0, 4);
  for (int f = 0; f < unary; ++f) {
    src += "f0(" + std::to_string(RandInt(rng, 0, 4)) + ").\n";
  }
  src += "?- p" + std::to_string(num_idb - 1) + ".\n";
  return src;
}

// The fuzz sweep's trials, in order; trials whose source fails to parse
// are skipped (the generator aims for valid programs but does not
// guarantee stratification).
constexpr int kFuzzTrials = 200;

inline std::vector<Case> FuzzCases() {
  std::vector<Case> out;
  FuzzRng rng(20260806);
  for (int trial = 0; trial < kFuzzTrials; ++trial) {
    std::string src = MakeRandomUnit(&rng);
    Result<ParsedUnit> parsed = ParseUnit(src);
    if (!parsed.ok()) continue;
    out.push_back({"fuzz_" + std::to_string(trial), parsed.value().program,
                   FactsOf(parsed.value()), true, src});
  }
  return out;
}

}  // namespace corpus
}  // namespace sqod

#endif  // SQOD_TESTS_EVAL_CORPUS_H_
