// Golden test for the optimizer pipeline on the hash-consing triplet store:
// every pipeline artifact (P', P1, the normalized input, and the structural
// and residue counters) must match tests/golden/sqo_pipeline.golden, across
// the worked example, the E4 scaling families, the E9 ablation workload,
// random programs, and runs with passes disabled.
//
// The goldens were captured with the store's memo tables on and with them
// off (a plain recomputing path that has since been removed); both agreed
// on every line, so the memoized pipeline is pinned to the unmemoized
// semantics.
//
// Fresh variables are drawn from a process-global generator, so runs in
// different processes (or after other tests) produce alpha-equivalent rather
// than textually equal programs; rules are compared after a canonical
// per-rule renaming.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/parser/parser.h"
#include "src/sqo/optimizer.h"
#include "src/workload/programs.h"

namespace sqod {
namespace {

// Renames each rule's variables to _c0, _c1, ... in order of first
// occurrence (head, then body, then comparisons), making the rendering
// independent of which fresh names the run happened to draw.
Rule CanonicalRule(const Rule& rule) {
  std::vector<VarId> vars;
  rule.head.CollectVars(&vars);
  for (const Literal& l : rule.body) l.atom.CollectVars(&vars);
  for (const Comparison& c : rule.comparisons) c.CollectVars(&vars);
  Substitution canon;
  int next = 0;
  for (VarId v : vars) {
    if (canon.Lookup(v) == nullptr) {
      canon.Bind(v, Term::Var("_c" + std::to_string(next++)));
    }
  }
  return canon.Apply(rule);
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

// The canonical rules on one line; programs longer than kVerbatimMax bytes
// are stored as the FNV-1a hash of that line.
constexpr size_t kVerbatimMax = 1200;

std::string CanonicalProgram(const Program& program) {
  std::string out;
  for (const Rule& rule : program.rules()) {
    if (!out.empty()) out += ' ';
    out += CanonicalRule(rule).ToString();
  }
  return out.size() > kVerbatimMax ? Hash(out) : out;
}

// Golden line: "<label> | <counters> | rewritten: <P'> | adorned: <P1> |
// normalized: <program>".
std::string PipelineLine(const std::string& label, const SqoReport& r) {
  std::ostringstream out;
  out << label << " | adorned_predicates=" << r.adorned_predicates
      << " adorned_rules=" << r.adorned_rules
      << " tree_classes=" << r.tree_classes
      << " surviving_classes=" << r.surviving_classes
      << " query_satisfiable=" << r.query_satisfiable
      << " residue_rules_deleted=" << r.residue_rules_deleted
      << " residue_comparisons_added=" << r.residue_comparisons_added
      << " residue_negations_added=" << r.residue_negations_added
      << " | rewritten: " << CanonicalProgram(r.rewritten)
      << " | adorned: " << CanonicalProgram(r.adorned)
      << " | normalized: " << CanonicalProgram(r.normalized);
  return out.str();
}

struct Case {
  std::string label;
  Program program;
  std::vector<Constraint> ics;
  SqoOptions options;
};

Case AbClosureAblation(const std::string& label,
                       std::vector<std::string> disabled) {
  Case c{label, MakeAbClosureProgram(), {MakeAbIc()}, {}};
  c.options.disabled_passes = std::move(disabled);
  return c;
}

// The corpus, in golden-file order. Labels are "<family>_<variant>" (or
// just the family), and each TEST below runs one family.
const std::vector<Case>& Corpus() {
  static const std::vector<Case>* corpus = [] {
    auto* out = new std::vector<Case>();

    std::ifstream in(std::string(SQOD_EXAMPLES_DIR) + "/figure1.dl");
    std::stringstream source;
    source << in.rdbuf();
    ParsedUnit unit = ParseUnit(source.str()).take();
    out->push_back({"figure1", unit.program, unit.constraints, {}});

    for (int colors = 2; colors <= 4; ++colors) {
      Rng rng(77);
      ColoredClosure cc = MakeColoredClosure(colors, colors, &rng);
      out->push_back(
          {"e4_colors_" + std::to_string(colors), cc.program, cc.ics, {}});
    }

    for (int width = 2; width <= 4; ++width) {
      Constraint ic;
      for (int i = 0; i < width; ++i) {
        const char* pred = (i % 2 == 0) ? "a" : "b";
        ic.body.push_back(Literal::Pos(
            Atom(pred, {Term::Var("V" + std::to_string(i)),
                        Term::Var("V" + std::to_string(i + 1))})));
      }
      out->push_back({"e4_wide_ic_" + std::to_string(width),
                      MakeAbClosureProgram(),
                      {ic},
                      {}});
    }

    out->push_back(
        {"e9_goodpath_600", MakeGoodPathProgram(), MakeMonotoneIcs(600), {}});

    for (uint64_t seed : {11u, 23u, 42u}) {
      Rng rng(seed);
      RandomProgram rp = MakeRandomProgram(3, 3, 4, 3, &rng);
      out->push_back(
          {"random_" + std::to_string(seed), rp.program, rp.ics, {}});
    }

    for (const char* pass : {"tree", "residues", "fd_rewrite", "adorn"}) {
      out->push_back(
          AbClosureAblation(std::string("ablation_") + pass, {pass}));
    }
    out->push_back(AbClosureAblation("ablation_p1_only", {"tree", "residues"}));
    return out;
  }();
  return *corpus;
}

// Label -> its whole golden line.
const std::map<std::string, std::string>& Goldens() {
  static const std::map<std::string, std::string> goldens = [] {
    std::map<std::string, std::string> out;
    std::ifstream in(std::string(SQOD_TESTS_DIR) +
                     "/golden/sqo_pipeline.golden");
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      out[line.substr(0, line.find(" | "))] = line;
    }
    return out;
  }();
  return goldens;
}

bool InFamily(const std::string& label, const std::string& family) {
  return label == family || label.rfind(family + "_", 0) == 0;
}

// Runs every corpus case of `family` and compares its line to the golden.
void ExpectFamilyMatchesGoldens(const std::string& family) {
  int ran = 0;
  for (const Case& c : Corpus()) {
    if (!InFamily(c.label, family)) continue;
    ++ran;
    Result<SqoReport> report = OptimizeProgram(c.program, c.ics, c.options);
    ASSERT_TRUE(report.ok()) << c.label << ": " << report.status().message();
    auto golden = Goldens().find(c.label);
    ASSERT_NE(golden, Goldens().end()) << "no golden for " << c.label;
    const std::string actual = PipelineLine(c.label, report.value());
    EXPECT_EQ(actual, golden->second)
        << c.label << " diverged from the golden; actual line:\n"
        << actual;
  }
  EXPECT_GT(ran, 0) << "no corpus case in family " << family;
}

TEST(InterningGoldenTest, Figure1Example) {
  ExpectFamilyMatchesGoldens("figure1");
}

TEST(InterningGoldenTest, E4ColoredClosureFamily) {
  ExpectFamilyMatchesGoldens("e4_colors");
}

TEST(InterningGoldenTest, E4WideIcFamily) {
  ExpectFamilyMatchesGoldens("e4_wide_ic");
}

TEST(InterningGoldenTest, E9GoodPathWorkload) {
  ExpectFamilyMatchesGoldens("e9_goodpath");
}

TEST(InterningGoldenTest, RandomProgramFamily) {
  ExpectFamilyMatchesGoldens("random");
}

// The ablation surface (the CLI's --disable-pass): each degraded pipeline,
// and P1 alone (tree and residues disabled), is pinned too.
TEST(InterningGoldenTest, AblationsUnaffectedByMemoization) {
  ExpectFamilyMatchesGoldens("ablation");
}

// Every golden line belongs to a corpus case and every corpus case has a
// golden line, so neither can be dropped silently; every case belongs to a
// family one of the tests above runs.
TEST(InterningGoldenTest, GoldensMatchCorpus) {
  std::set<std::string> labels;
  for (const Case& c : Corpus()) {
    EXPECT_TRUE(labels.insert(c.label).second) << "duplicate " << c.label;
    EXPECT_EQ(Goldens().count(c.label), 1u) << "no golden for " << c.label;
    bool in_family = false;
    for (const char* family : {"figure1", "e4_colors", "e4_wide_ic",
                               "e9_goodpath", "random", "ablation"}) {
      in_family = in_family || InFamily(c.label, family);
    }
    EXPECT_TRUE(in_family) << c.label << " is run by no test";
  }
  for (const auto& [label, line] : Goldens()) {
    EXPECT_EQ(labels.count(label), 1u) << "golden without a case: " << label;
  }
}

}  // namespace
}  // namespace sqod
