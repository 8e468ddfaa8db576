// Equivalence suite for the compiled rule executor. Every configuration —
// semi-naive vs naive iteration, indexes on vs off, the generic bytecode
// dispatch loop vs the specialized join kernels, threads 1/2/4 — must
// produce the reference evaluator's answers (tests/reference_eval.h: naive
// nested loops, no indexes, no plans) and exactly the golden work counters
// in tests/golden/eval_counters.golden.
//
// The goldens were captured from the plan interpreter the bytecode
// replaced, so they pin the interpreter's counter semantics: per-rule
// firings, derived, duplicates, probes and cmp_checks at every
// (semi_naive, use_indexes) point, for both executors and every thread
// count, plus the compiled `ops` of each executor at threads = 1 (ops
// scales with the parallel task count, so only the serial value is
// pinned). Any divergence in masking, probe chains, early pruning or the
// partition merge shows up as a counter mismatch, not just an answer
// mismatch.
//
// Corpus (tests/eval_corpus.h): the Figure 1 worked example, the GoodPath
// and colored-closure workload families, stratified IDB negation with
// comparisons, repeated variables, the E2/E4 bench slices CI runs, and a
// 200-program random fuzz sweep. The threads = {2, 4} runs partition real
// tasks; these suites run under TSan in CI (the EvalEquiv regex), which
// makes them a data-race check on the partition tasks too.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "src/eval/evaluator.h"
#include "src/eval/executor.h"
#include "src/parser/parser.h"
#include "src/workload/graphs.h"
#include "src/workload/programs.h"
#include "tests/eval_corpus.h"
#include "tests/reference_eval.h"

namespace sqod {
namespace {

// The two executors under test: the generic dispatch loop is the kernels'
// counter-exact reference.
struct ExecMode {
  bool use_kernels;
  const char* name;
};

constexpr ExecMode kExecModes[] = {
    {false, "compile-generic"},
    {true, "compile-kernels"},
};

// Golden line: "<label> sn=<0|1> idx=<0|1> | <counters> | <ops>", keyed by
// everything before the first " | ". Fuzz cases store FNV-1a hashes of
// the two signatures instead of the signatures themselves.
struct Golden {
  std::string counters;
  std::string ops;
};

const std::map<std::string, Golden>& Goldens() {
  static const std::map<std::string, Golden> goldens = [] {
    std::map<std::string, Golden> out;
    std::ifstream in(std::string(SQOD_TESTS_DIR) +
                     "/golden/eval_counters.golden");
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      const size_t a = line.find(" | ");
      const size_t b = line.find(" | ", a + 3);
      out[line.substr(0, a)] = {line.substr(a + 3, b - a - 3),
                                line.substr(b + 3)};
    }
    return out;
  }();
  return goldens;
}

std::string Hash(const std::string& s) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  char buf[20];
  std::snprintf(buf, sizeof(buf), "#%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

// Iterations, answer count, and per-rule firings/derived/duplicates/
// probes/cmp_checks.
std::string CounterSignature(const EvalStats& stats, size_t answers,
                             const std::vector<RuleProfile>& profiles) {
  std::ostringstream out;
  out << "it=" << stats.iterations << " n=" << answers;
  for (const RuleProfile& p : profiles) {
    out << " r" << p.rule_index << "=" << p.firings << "/" << p.derived << "/"
        << p.duplicates << "/" << p.probes << "/" << p.cmp_checks;
  }
  return out.str();
}

// Per-rule ops of the generic loop / the kernels, at threads = 1.
std::string OpsSignature(const std::vector<RuleProfile>& generic,
                         const std::vector<RuleProfile>& kernels) {
  std::ostringstream out;
  for (size_t i = 0; i < generic.size(); ++i) {
    out << (i == 0 ? "r" : " r") << i << "=" << generic[i].ops << "/"
        << kernels[i].ops;
  }
  return out.str();
}

// Runs `c` under every configuration its goldens cover (semi_naive x
// use_indexes for all_configs cases, the defaults otherwise) x executor x
// threads (parallel being semi-naive only) and asserts the answers match
// the reference evaluator (or, for the bench slices, which are too big for
// it, each other) and the counters match the goldens.
void ExpectMatchesReferenceAndGoldens(const corpus::Case& c) {
  const std::string label =
      c.source.empty() ? c.label : c.label + ":\n" + c.source;
  const bool fuzz = !c.source.empty();
  std::vector<Tuple> expected;
  const bool have_reference = c.all_configs;
  if (have_reference) expected = reference::Query(c.program, c.edb);
  for (bool semi_naive : {true, false}) {
    for (bool use_indexes : {true, false}) {
      if (!c.all_configs && !(semi_naive && use_indexes)) continue;
      const std::string key = c.label + " sn=" + (semi_naive ? "1" : "0") +
                              " idx=" + (use_indexes ? "1" : "0");
      auto golden = Goldens().find(key);
      ASSERT_NE(golden, Goldens().end()) << "no golden for " << key;
      std::vector<RuleProfile> serial[2];
      for (int e = 0; e < 2; ++e) {
        for (int threads : {1, 2, 4}) {
          // Naive iteration is always serial; one run covers it.
          if (!semi_naive && threads != 1) continue;
          EvalOptions options;
          options.semi_naive = semi_naive;
          options.use_indexes = use_indexes;
          options.use_kernels = kExecModes[e].use_kernels;
          options.threads = threads;
          EvalStats stats;
          std::vector<RuleProfile> profiles;
          Result<std::vector<Tuple>> result =
              EvaluateQuery(c.program, c.edb, options, &stats, &profiles);
          const std::string config = " [" + key + " " + kExecModes[e].name +
                                     " threads=" + std::to_string(threads) +
                                     "]";
          ASSERT_TRUE(result.ok())
              << label << config << ": " << result.status().message();
          if (!have_reference && expected.empty()) expected = result.value();
          ASSERT_EQ(expected, result.value())
              << label << config << " diverged on answers";
          std::string counters =
              CounterSignature(stats, result.value().size(), profiles);
          ASSERT_EQ(golden->second.counters,
                    fuzz ? Hash(counters) : counters)
              << label << config << " diverged from the golden counters"
              << "\n  got: " << counters;
          if (threads == 1) serial[e] = std::move(profiles);
        }
      }
      const std::string ops = OpsSignature(serial[0], serial[1]);
      ASSERT_EQ(golden->second.ops, fuzz ? Hash(ops) : ops)
          << label << " [" << key << "] diverged from the golden ops"
          << "\n  got: " << ops;
    }
  }
}

const corpus::Case& NamedCase(const std::string& label) {
  static const std::vector<corpus::Case> cases = corpus::NamedCases();
  for (const corpus::Case& c : cases) {
    if (c.label == label) return c;
  }
  SQOD_CHECK_MSG(false, label.c_str());
  return cases.front();
}

// The Figure 1 worked example, as shipped in examples/figure1.dl (the
// a/b closure program with facts).
TEST(EvalEquivTest, Figure1FourWayEquivalence) {
  ExpectMatchesReferenceAndGoldens(NamedCase("figure1"));
}

// The Section 3 GoodPath program over its generated workload (the E2
// bench family, scaled down): linear recursion plus bound-key joins —
// the shape the scan_probe_emit kernel targets.
TEST(EvalEquivTest, GoodPathFourWayEquivalence) {
  ExpectMatchesReferenceAndGoldens(NamedCase("goodpath"));
}

// The E4 family: k-colored transitive closure (one base + one recursive
// rule per color) over random colored edges.
TEST(EvalEquivTest, ColoredClosureFourWayEquivalence) {
  ExpectMatchesReferenceAndGoldens(NamedCase("colored_closure"));
}

// Stratified IDB negation plus comparisons: reach in stratum 0, its
// complement in stratum 1, a guarded closure over the complement in
// stratum 2. Exercises kCheckNeg against both EDB and IDB-total sources
// and kFilterCmp between join levels.
TEST(EvalEquivTest, StratifiedNegationFourWayEquivalence) {
  ExpectMatchesReferenceAndGoldens(NamedCase("stratified_neg"));
}

// Repeated variables inside one subgoal (e(X, X)) and inter-atom repeats:
// the compiler must not mask a column on a variable the same atom is the
// first to bind.
TEST(EvalEquivTest, RepeatedVariableFourWayEquivalence) {
  ExpectMatchesReferenceAndGoldens(NamedCase("repeated_vars"));
}

// The E2 slices CI benchmarks (BM_E2_*_Size/500, BM_E2_*_Fraction/60) and
// the E4 slices' programs over generated databases, original and
// rewritten, at the bench's configuration.
TEST(EvalEquivTest, BenchSlicesMatchGoldens) {
  for (const char* label :
       {"e2_original_size_500", "e2_rewritten_size_500",
        "e2_original_fraction_60", "e2_rewritten_fraction_60",
        "e4_wide_ic_3_original", "e4_wide_ic_3_rewritten",
        "e4_colors_2_original", "e4_colors_2_rewritten"}) {
    ExpectMatchesReferenceAndGoldens(NamedCase(label));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// Every golden line belongs to a corpus case: a case dropped from the
// corpus cannot silently take its goldens with it.
TEST(EvalEquivTest, EveryGoldenHasACorpusCase) {
  std::map<std::string, int> labels;
  for (const corpus::Case& c : corpus::NamedCases()) ++labels[c.label];
  for (const corpus::Case& c : corpus::FuzzCases()) ++labels[c.label];
  for (const auto& [key, golden] : Goldens()) {
    EXPECT_EQ(labels.count(key.substr(0, key.find(' '))), 1u) << key;
  }
  EXPECT_GE(Goldens().size(), 800u);
}

// Parallel-machinery accounting: a partitioned run reports its task and
// iteration counts, and the per-partition derivation counts sum to at most
// the total derived (unpartitioned single-task plans are not attributed to
// a partition).
TEST(EvalEquivParallelTest, ParallelStatsReported) {
  Rng rng(20260808);
  GoodPathConfig config;
  config.nodes = 100;
  config.edges = 350;
  config.num_start = 6;
  config.num_end = 6;
  config.threshold = 25;
  Database edb = MakeGoodPathWorkload(config, &rng);
  Program program = MakeGoodPathProgram();

  EvalOptions serial;
  EvalStats serial_stats;
  Result<std::vector<Tuple>> serial_result =
      EvaluateQuery(program, edb, serial, &serial_stats);
  ASSERT_TRUE(serial_result.ok());

  EvalOptions par;
  par.threads = 4;
  ParallelEvalStats pstats;
  par.parallel_stats = &pstats;
  EvalStats par_stats;
  Result<std::vector<Tuple>> par_result =
      EvaluateQuery(program, edb, par, &par_stats);
  ASSERT_TRUE(par_result.ok());

  EXPECT_EQ(serial_result.value(), par_result.value());
  EXPECT_EQ(serial_stats.ToString(), par_stats.ToString());
  EXPECT_EQ(pstats.threads, 4);
  EXPECT_GT(pstats.parallel_iterations, 0);
  EXPECT_GT(pstats.partition_tasks, 0);
  ASSERT_EQ(pstats.partition_derived.size(), 4u);
  int64_t partitioned_derived = 0;
  for (int64_t d : pstats.partition_derived) {
    EXPECT_GE(d, 0);
    partitioned_derived += d;
  }
  EXPECT_LE(partitioned_derived, par_stats.tuples_derived);
}

// A serial run never touches the parallel machinery: threads = 1 reports
// zero partition tasks through the same stats hook.
TEST(EvalEquivParallelTest, SerialRunReportsNoPartitionTasks) {
  Rng rng(20260808);
  GoodPathConfig config;
  config.nodes = 40;
  config.edges = 120;
  config.threshold = 10;
  Database edb = MakeGoodPathWorkload(config, &rng);
  EvalOptions options;
  ParallelEvalStats pstats;
  options.parallel_stats = &pstats;
  Result<std::vector<Tuple>> result =
      EvaluateQuery(MakeGoodPathProgram(), edb, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(pstats.partition_tasks, 0);
  EXPECT_EQ(pstats.parallel_iterations, 0);
}

// One shared executor serving many evaluations in sequence (the engine's
// deployment shape: Engine::eval_executor outlives every request) keeps
// producing serial-identical answers.
TEST(EvalEquivParallelTest, SharedExecutorAcrossEvaluations) {
  Rng rng(20260808);
  ColoredClosure workload = MakeColoredClosure(/*colors=*/2, /*num_ics=*/1,
                                               &rng);
  Database edb = MakeColoredEdges(/*colors=*/2, /*nodes=*/50, /*edges=*/160,
                                  workload.ics, &rng);
  EvalStats serial_stats;
  Result<std::vector<Tuple>> serial =
      EvaluateQuery(workload.program, edb, {}, &serial_stats);
  ASSERT_TRUE(serial.ok());

  EvalExecutor executor(3);
  for (int round = 0; round < 4; ++round) {
    EvalOptions options;
    options.threads = 4;
    options.executor = &executor;
    EvalStats stats;
    Result<std::vector<Tuple>> result =
        EvaluateQuery(workload.program, edb, options, &stats);
    ASSERT_TRUE(result.ok()) << result.status().message();
    EXPECT_EQ(serial.value(), result.value()) << "round " << round;
    EXPECT_EQ(serial_stats.ToString(), stats.ToString()) << "round " << round;
  }
}

// More partitions than any relation has rows: most tasks find nothing,
// answers and counters still match serial exactly.
TEST(EvalEquivParallelTest, MorePartitionsThanRows) {
  Result<ParsedUnit> parsed = ParseUnit(R"(
    path(X, Y) :- e(X, Y).
    path(X, Z) :- path(X, Y), e(Y, Z).
    ?- path.
  )");
  ASSERT_TRUE(parsed.ok());
  Database edb;
  const PredId e = InternPred("e");
  edb.Insert(e, {Value::Int(1), Value::Int(2)});
  edb.Insert(e, {Value::Int(2), Value::Int(3)});
  edb.Insert(e, {Value::Int(3), Value::Int(4)});

  EvalStats serial_stats;
  Result<std::vector<Tuple>> serial =
      EvaluateQuery(parsed.value().program, edb, {}, &serial_stats);
  ASSERT_TRUE(serial.ok());

  EvalOptions options;
  options.threads = 16;
  EvalStats stats;
  Result<std::vector<Tuple>> result =
      EvaluateQuery(parsed.value().program, edb, options, &stats);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(serial.value(), result.value());
  EXPECT_EQ(serial_stats.ToString(), stats.ToString());
}

TEST(EvalEquivFuzzTest, AllConfigurationsAgree) {
  const std::vector<corpus::Case> cases = corpus::FuzzCases();
  // The generator must actually exercise the engine, not skip everything.
  EXPECT_GE(cases.size(), 150u);
  for (const corpus::Case& c : cases) {
    ExpectMatchesReferenceAndGoldens(c);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace sqod
