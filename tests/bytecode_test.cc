// Unit tests for the executor paths incremental maintenance drives through
// RunCompiled: per-level row views over a tombstoned versioned relation
// (live, the old snapshot, all rows) for scans, index probes and CHECK_NEG;
// the head-bound prologue of DRed support plans; and caller sinks that stop
// an activation early.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/eval/bytecode.h"
#include "src/eval/evaluator.h"
#include "src/eval/kernel.h"
#include "src/parser/parser.h"

namespace sqod {
namespace {

Tuple Ints(std::initializer_list<int64_t> vals) {
  Tuple t;
  for (int64_t v : vals) t.push_back(Value::Int(v));
  return t;
}

CompiledRule Compile(const std::string& text, bool head_bound = false) {
  Result<Rule> rule = ParseRule(text);
  SQOD_CHECK_MSG(rule.ok(), rule.status().message().c_str());
  return CompileRule(rule.value(), 0, -1, {rule.value().head.pred()},
                     head_bound);
}

// Collects head tuples; stops the activation after `limit` of them.
class CollectSink : public HeadSink {
 public:
  explicit CollectSink(size_t limit = SIZE_MAX) : limit_(limit) {}
  bool Accept(const Value* head, int n) override {
    tuples.emplace_back(head, head + n);
    return tuples.size() < limit_;
  }
  std::vector<Tuple> tuples;

 private:
  size_t limit_;
};

// One maintenance-style activation: relations supplied per level and
// negation, views by body position, heads into a sink.
struct Activation {
  std::vector<const Relation*> levels, negs;
  std::vector<RowView> views;  // empty = all live
  int64_t old_version = 0;
  const Value* head_in = nullptr;
  RuleProfile profile;

  std::vector<Tuple> Run(const CompiledRule& cr, CollectSink* sink) {
    std::vector<Value> regs(cr.num_regs);
    VmContext vm;
    vm.profile = &profile;
    vm.regs = &regs;
    vm.level_rels = &levels;
    vm.neg_rels = &negs;
    vm.views = views.empty() ? nullptr : views.data();
    vm.old_version = old_version;
    vm.sink = sink;
    vm.head_in = head_in;
    EXPECT_EQ(RunCompiled(cr, &vm, /*use_kernels=*/true), KernelId::kGeneric);
    std::vector<Tuple> out = sink->tuples;
    std::sort(out.begin(), out.end());
    return out;
  }
};

// e at snapshot 0 = {(1,2), (2,3), (1,4)}; batch V = 1 deletes (1,2) and
// adds (5,6) and (1,7). Live = {(2,3), (1,4), (5,6), (1,7)}; old (v = 0) =
// {(1,2), (2,3), (1,4)}; all rows = both.
class RowViewTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_.EnableVersioning(0);
    for (const Tuple& t : {Ints({1, 2}), Ints({2, 3}), Ints({1, 4})}) {
      db_.Insert(e_, t);
    }
    db_.SetVersion(1);
    ASSERT_TRUE(db_.Erase(e_, Ints({1, 2})));
    db_.Insert(e_, Ints({5, 6}));
    db_.Insert(e_, Ints({1, 7}));
    rel_ = db_.Find(e_);
    ASSERT_TRUE(rel_->has_tombstones());
  }

  std::vector<Tuple> Scan(RowView view) {
    Activation a;
    a.levels = {rel_};
    a.views = {view};
    CollectSink sink;
    return a.Run(Compile("p(X, Y) :- e(X, Y)."), &sink);
  }

  std::vector<Tuple> Probe(RowView view) {
    CompiledRule cr = Compile("p(Y) :- e(1, Y).");
    EXPECT_EQ(cr.levels[0].mask, 1u);  // an index probe on column 0
    Activation a;
    a.levels = {rel_};
    a.views = {view};
    CollectSink sink;
    return a.Run(cr, &sink);
  }

  const PredId e_ = InternPred("e");
  Database db_;
  const Relation* rel_ = nullptr;
};

TEST_F(RowViewTest, LiveSeesAddedNotDeleted) {
  EXPECT_EQ(Scan(RowView::kLive),
            (std::vector<Tuple>{Ints({1, 4}), Ints({1, 7}), Ints({2, 3}),
                                Ints({5, 6})}));
  EXPECT_EQ(Probe(RowView::kLive),
            (std::vector<Tuple>{Ints({4}), Ints({7})}));
}

TEST_F(RowViewTest, OldSeesDeletedNotAdded) {
  EXPECT_EQ(Scan(RowView::kOld),
            (std::vector<Tuple>{Ints({1, 2}), Ints({1, 4}), Ints({2, 3})}));
  EXPECT_EQ(Probe(RowView::kOld),
            (std::vector<Tuple>{Ints({2}), Ints({4})}));
}

TEST_F(RowViewTest, AllSeesBoth) {
  EXPECT_EQ(Scan(RowView::kAll),
            (std::vector<Tuple>{Ints({1, 2}), Ints({1, 4}), Ints({1, 7}),
                                Ints({2, 3}), Ints({5, 6})}));
  EXPECT_EQ(Probe(RowView::kAll),
            (std::vector<Tuple>{Ints({2}), Ints({4}), Ints({7})}));
}

// Unset views mean all live: the evaluation default.
TEST_F(RowViewTest, UnsetViewsReadLiveRows) {
  Activation a;
  a.levels = {rel_};
  CollectSink sink;
  EXPECT_EQ(a.Run(Compile("p(X, Y) :- e(X, Y)."), &sink), Scan(RowView::kLive));
}

// CHECK_NEG reads the view of its own body position: f (plain, every row)
// minus e under the chosen view.
TEST_F(RowViewTest, CheckNegHonorsTheView) {
  Relation f(2);
  for (const Tuple& t : {Ints({1, 2}), Ints({2, 3}), Ints({5, 6}),
                         Ints({8, 9})}) {
    f.Insert(t);
  }
  CompiledRule cr = Compile("q(X, Y) :- f(X, Y), !e(X, Y).");
  ASSERT_EQ(cr.negs.size(), 1u);
  ASSERT_EQ(cr.negs[0].body_index, 1);
  auto run = [&](RowView neg_view) {
    Activation a;
    a.levels = {&f};
    a.negs = {rel_};
    a.views = {RowView::kLive, neg_view};
    CollectSink sink;
    return a.Run(cr, &sink);
  };
  // Old e = {(1,2), (2,3), (1,4)}: the deleted (1,2) still blocks.
  EXPECT_EQ(run(RowView::kOld),
            (std::vector<Tuple>{Ints({5, 6}), Ints({8, 9})}));
  // Live e = {(2,3), (1,4), (5,6), (1,7)}: the added (5,6) blocks.
  EXPECT_EQ(run(RowView::kLive),
            (std::vector<Tuple>{Ints({1, 2}), Ints({8, 9})}));
  // Every row of e blocks.
  EXPECT_EQ(run(RowView::kAll), (std::vector<Tuple>{Ints({8, 9})}));
}

// A head-bound support plan loads its head registers from the candidate;
// a candidate contradicting the head (a repeated variable bound to two
// values, or a constant mismatch) has no witness even when the body alone
// would match.
TEST(HeadBoundTest, ConflictingCandidatesFindNoWitness) {
  Database db;
  const PredId e = InternPred("e");
  db.Insert(e, Ints({2, 3}));
  db.Insert(e, Ints({4, 4}));
  CompiledRule cr = Compile("t(X, X, 1) :- e(X, Y).", /*head_bound=*/true);
  EXPECT_TRUE(cr.head_bound);
  EXPECT_EQ(cr.kernel, KernelId::kGeneric);
  EXPECT_EQ(cr.levels[0].mask, 1u);  // X counts as bound: probe column 0
  auto witnesses = [&](const Tuple& candidate) {
    Activation a;
    a.levels = {db.Find(e)};
    a.head_in = candidate.data();
    CollectSink sink(1);
    return a.Run(cr, &sink).size();
  };
  EXPECT_EQ(witnesses(Ints({2, 2, 1})), 1u);
  EXPECT_EQ(witnesses(Ints({4, 4, 1})), 1u);
  EXPECT_EQ(witnesses(Ints({2, 4, 1})), 0u);  // X = 2 and X = 4
  EXPECT_EQ(witnesses(Ints({2, 2, 7})), 0u);  // head constant is 1
  EXPECT_EQ(witnesses(Ints({3, 3, 1})), 0u);  // no e(3, _)
}

// A sink that stops after its first match ends the whole enumeration:
// no further rows are examined at any level.
TEST(SinkTest, StopAfterFirstMatchEndsTheActivation) {
  Database db;
  const PredId e = InternPred("e");
  for (int i = 0; i < 5; ++i) {
    db.Insert(e, Ints({i, i + 1}));
    db.Insert(e, Ints({i, i + 2}));
  }
  CompiledRule cr = Compile("p(X, Z) :- e(X, Y), e(Y, Z).");
  ASSERT_EQ(cr.levels.size(), 2u);

  Activation all;
  all.levels = {db.Find(e), db.Find(e)};
  CollectSink every;
  const size_t matches = all.Run(cr, &every).size();
  ASSERT_GT(matches, 1u);

  Activation first;
  first.levels = {db.Find(e), db.Find(e)};
  CollectSink one(1);
  EXPECT_EQ(first.Run(cr, &one).size(), 1u);
  EXPECT_EQ(first.profile.firings, 1);
  // Outer row 1, then inner row 1 matched: two candidate rows examined.
  EXPECT_EQ(first.profile.probes, 2);
  EXPECT_LT(first.profile.probes, all.profile.probes);
}

}  // namespace
}  // namespace sqod
