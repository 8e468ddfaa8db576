#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <set>
#include <sstream>
#include <tuple>

namespace sqodbench {
namespace {

// serve sizes. Figure 1: chains of a forest, so the closure has exactly
// kFigChains * L(L-1)/2 answers whatever the seed (shortcuts add duplicate
// derivations, never answers). goodPath: segments of a strictly increasing
// step graph with two start and two end points per segment, so the answer
// count is fixed and small while path/2 still covers every segment.
constexpr int kFigChains = 6;
constexpr int kFigChainLen = 40;
constexpr int kFigShortcuts = 10;  // per chain
constexpr int kGpSegments = 20;
constexpr int kGpSegmentLen = 24;
constexpr int kGpJumps = 8;  // per segment

// load sizes: small EDBs of at most 32 nodes, so the optimizer dominates.
constexpr int kLoadMinNodes = 12;
constexpr int kLoadMaxNodes = 32;

// churn sizes: a forest of 8-node chains with 25% of the possible (i, i+2)
// shortcuts, as in E12, and two random graphs of 4 * kJoinNodes edges
// each; batches change about 1% of each view's EDB.
constexpr int kTcNodes = 1024;
constexpr int kTcChainLen = 8;
constexpr int kJoinNodes = 256;

using Rng = std::mt19937_64;

// splitmix64.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

void Require(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "sqod_bench: generator invariant failed: %s\n",
                 what);
    std::abort();
  }
}

int Uniform(Rng* rng, int lo, int hi) {  // inclusive
  return lo + static_cast<int>((*rng)() % static_cast<uint64_t>(hi - lo + 1));
}

// Fisher-Yates over Uniform, so the order depends only on the seed and not
// on the standard library's distribution code.
template <typename T>
void Shuffle(std::vector<T>* v, Rng* rng) {
  for (int i = static_cast<int>(v->size()) - 1; i > 0; --i) {
    std::swap((*v)[static_cast<size_t>(i)],
              (*v)[static_cast<size_t>(Uniform(rng, 0, i))]);
  }
}

struct Edge {
  int u = 0;
  int v = 0;
  int color = 0;
};

// Pairs (x, y) with y reachable from x in one or more steps.
Answers Closure(int nodes, const std::vector<Edge>& edges) {
  std::vector<std::vector<int>> out(static_cast<size_t>(nodes));
  for (const Edge& e : edges) out[static_cast<size_t>(e.u)].push_back(e.v);
  Answers answers;
  std::vector<char> seen(static_cast<size_t>(nodes));
  std::vector<int> stack;
  for (int x = 0; x < nodes; ++x) {
    std::fill(seen.begin(), seen.end(), 0);
    stack.assign(out[static_cast<size_t>(x)].begin(),
                 out[static_cast<size_t>(x)].end());
    while (!stack.empty()) {
      const int y = stack.back();
      stack.pop_back();
      if (seen[static_cast<size_t>(y)]) continue;
      seen[static_cast<size_t>(y)] = 1;
      for (int z : out[static_cast<size_t>(y)]) stack.push_back(z);
    }
    for (int y = 0; y < nodes; ++y) {
      if (seen[static_cast<size_t>(y)]) answers.emplace_back(x, y);
    }
  }
  return answers;
}

Answers GoodPaths(int nodes, const std::vector<Edge>& steps,
                  const std::vector<int>& starts,
                  const std::vector<int>& ends) {
  const Answers path = Closure(nodes, steps);
  const std::set<Pair> reach(path.begin(), path.end());
  Answers answers;
  for (int s : starts) {
    for (int e : ends) {
      if (reach.count({s, e})) answers.emplace_back(s, e);
    }
  }
  std::sort(answers.begin(), answers.end());
  answers.erase(std::unique(answers.begin(), answers.end()), answers.end());
  return answers;
}

Answers Join(const std::set<Pair>& a, const std::set<Pair>& b) {
  std::vector<std::vector<int64_t>> b_out;
  for (const Pair& e : b) {
    if (static_cast<size_t>(e.first) >= b_out.size()) {
      b_out.resize(static_cast<size_t>(e.first) + 1);
    }
    b_out[static_cast<size_t>(e.first)].push_back(e.second);
  }
  std::set<Pair> out;
  for (const Pair& e : a) {
    if (static_cast<size_t>(e.second) >= b_out.size()) continue;
    for (int64_t z : b_out[static_cast<size_t>(e.second)]) {
      out.emplace(e.first, z);
    }
  }
  return Answers(out.begin(), out.end());
}

// Does some path follow the colors of `pattern` in order? That is the body
// of a chain IC  :- c0(V0, V1), c1(V1, V2), ...  having a match.
bool ChainMatches(int nodes, const std::vector<Edge>& edges,
                  const std::vector<int>& pattern) {
  std::vector<char> frontier(static_cast<size_t>(nodes), 1);
  for (int color : pattern) {
    std::vector<char> next(static_cast<size_t>(nodes), 0);
    bool any = false;
    for (const Edge& e : edges) {
      if (e.color == color && frontier[static_cast<size_t>(e.u)]) {
        next[static_cast<size_t>(e.v)] = 1;
        any = true;
      }
    }
    if (!any) return false;
    frontier.swap(next);
  }
  return true;
}

std::string Fact(const std::string& pred, int64_t u, int64_t v) {
  return pred + "(" + std::to_string(u) + ", " + std::to_string(v) + ")";
}

// p := the transitive closure of the union of `preds`.
std::string ClosureRules(const std::vector<std::string>& preds) {
  std::string out;
  for (const std::string& e : preds) {
    out += "p(X, Y) :- " + e + "(X, Y).\n";
    out += "p(X, Y) :- " + e + "(X, Z), p(Z, Y).\n";
  }
  return out;
}

std::string ChainIc(const std::vector<std::string>& preds,
                    const std::vector<int>& pattern) {
  std::string out = ":- ";
  for (size_t i = 0; i < pattern.size(); ++i) {
    if (i > 0) out += ", ";
    out += preds[static_cast<size_t>(pattern[i])] + "(V" + std::to_string(i) +
           ", V" + std::to_string(i + 1) + ")";
  }
  return out + ".\n";
}

std::string EdgeFacts(const std::vector<std::string>& preds,
                      const std::vector<Edge>& edges) {
  std::string out;
  for (const Edge& e : edges) {
    out += Fact(preds[static_cast<size_t>(e.color)], e.u, e.v) + ".\n";
  }
  return out;
}

constexpr char kGoodPathRules[] =
    "path(X, Y) :- step(X, Y).\n"
    "path(X, Y) :- step(X, Z), path(Z, Y).\n"
    "goodPath(X, Y) :- startPoint(X), path(X, Y), endPoint(Y).\n";

// The Section 3 ICs (1) and (2) with threshold `t`.
std::string MonotoneIcs(int t) {
  return ":- startPoint(X), step(X, Y), X < " + std::to_string(t) +
         ".\n:- step(X, Y), X >= Y.\n";
}

Unit GoodPathUnit(int nodes, const std::vector<Edge>& steps, int threshold,
                  const std::vector<int>& starts,
                  const std::vector<int>& ends) {
  for (const Edge& e : steps) Require(e.u < e.v, "goodPath IC (2)");
  for (int s : starts) Require(s >= threshold, "goodPath IC (1)");
  Unit unit;
  std::string& src = unit.source;
  src = kGoodPathRules;
  src += MonotoneIcs(threshold);
  src += EdgeFacts({"step"}, steps);
  for (int s : starts) src += "startPoint(" + std::to_string(s) + ").\n";
  for (int e : ends) src += "endPoint(" + std::to_string(e) + ").\n";
  src += "?- goodPath.\n";
  unit.answers = GoodPaths(nodes, steps, starts, ends);
  return unit;
}

// Picks `count` distinct values from [lo, hi].
std::vector<int> Distinct(Rng* rng, int lo, int hi, int count) {
  std::set<int> picked;
  while (static_cast<int>(picked.size()) < count) {
    picked.insert(Uniform(rng, lo, hi));
  }
  return std::vector<int>(picked.begin(), picked.end());
}

Unit FigureOneUnit(Rng* rng) {
  const int nodes = kFigChains * kFigChainLen;
  std::vector<int> ids(static_cast<size_t>(nodes));
  for (int i = 0; i < nodes; ++i) ids[static_cast<size_t>(i)] = i;
  Shuffle(&ids, rng);
  enum { kA = 0, kB = 1 };
  std::vector<Edge> edges;
  for (int c = 0; c < kFigChains; ++c) {
    auto id = [&](int i) {
      return ids[static_cast<size_t>(c * kFigChainLen + i)];
    };
    // b-edges up to the split, a-edges after it: no a-edge is ever
    // followed by a b-edge, so the Figure-1 IC holds. The splits are spread
    // evenly over the chains rather than drawn, because the work of P'
    // depends on them; the seed draws node labels and shortcuts.
    const int split = 1 + (2 * c + 1) * (kFigChainLen - 2) / (2 * kFigChains);
    for (int i = 0; i + 1 < kFigChainLen; ++i) {
      edges.push_back({id(i), id(i + 1), i < split ? kB : kA});
    }
    std::vector<int> candidates;
    for (int i = 0; i + 2 < kFigChainLen; ++i) {
      if (i + 2 <= split || i >= split) candidates.push_back(i);
    }
    Shuffle(&candidates, rng);
    for (int k = 0; k < kFigShortcuts; ++k) {
      const int i = candidates[static_cast<size_t>(k)];
      edges.push_back({id(i), id(i + 2), i >= split ? kA : kB});
    }
  }
  const std::vector<std::string> preds = {"a", "b"};
  Require(!ChainMatches(nodes, edges, {kA, kB}), "Figure-1 IC");
  Unit unit;
  unit.source = ClosureRules(preds) + ChainIc(preds, {kA, kB}) +
                EdgeFacts(preds, edges) + "?- p.\n";
  unit.answers = Closure(nodes, edges);
  return unit;
}

Unit ServeGoodPathUnit(Rng* rng, int skippable_percent) {
  const int nodes = kGpSegments * kGpSegmentLen;
  const int threshold = kGpSegments * skippable_percent / 100 * kGpSegmentLen;
  std::vector<Edge> steps;
  std::vector<int> starts, ends;
  const int half = kGpSegmentLen / 2;
  for (int g = 0; g < kGpSegments; ++g) {
    const int base = g * kGpSegmentLen;
    for (int i = 0; i + 1 < kGpSegmentLen; ++i) {
      steps.push_back({base + i, base + i + 1, 0});
    }
    for (int k = 0; k < kGpJumps; ++k) {
      const int from = Uniform(rng, 0, kGpSegmentLen - 3);
      const int to = std::min(kGpSegmentLen - 1, from + Uniform(rng, 2, 4));
      steps.push_back({base + from, base + to, 0});
    }
    for (int e : Distinct(rng, half, kGpSegmentLen - 1, 2)) {
      ends.push_back(base + e);
    }
    if (base < threshold) continue;
    for (int s : Distinct(rng, 0, half - 1, 2)) starts.push_back(base + s);
  }
  return GoodPathUnit(nodes, steps, threshold, starts, ends);
}

// Random edges over `colors`, skipping any whose addition would match one
// of the chain ICs in `patterns`.
std::vector<Edge> ConsistentEdges(Rng* rng, int nodes, int colors,
                                  int attempts,
                                  const std::vector<std::vector<int>>& ics) {
  std::vector<Edge> edges;
  std::set<std::tuple<int, int, int>> present;
  for (int t = 0; t < attempts; ++t) {
    Edge e{Uniform(rng, 0, nodes - 1), Uniform(rng, 0, nodes - 1),
           Uniform(rng, 0, colors - 1)};
    if (e.u == e.v || !present.insert({e.u, e.v, e.color}).second) continue;
    edges.push_back(e);
    for (const std::vector<int>& ic : ics) {
      if (ChainMatches(nodes, edges, ic)) {
        edges.pop_back();
        break;
      }
    }
  }
  return edges;
}

Unit ColoredClosureUnit(Rng* rng, int colors, int num_ics) {
  std::set<std::pair<int, int>> forbidden;
  while (static_cast<int>(forbidden.size()) < num_ics) {
    forbidden.emplace(Uniform(rng, 0, colors - 1),
                      Uniform(rng, 0, colors - 1));
  }
  std::vector<std::string> preds;
  for (int c = 0; c < colors; ++c) preds.push_back("e" + std::to_string(c));
  std::vector<std::vector<int>> ics;
  for (const auto& [i, j] : forbidden) ics.push_back({i, j});
  const int nodes = Uniform(rng, kLoadMinNodes, kLoadMaxNodes);
  const std::vector<Edge> edges =
      ConsistentEdges(rng, nodes, colors, 2 * nodes, ics);
  Unit unit;
  unit.source = ClosureRules(preds);
  for (const std::vector<int>& ic : ics) unit.source += ChainIc(preds, ic);
  unit.source += EdgeFacts(preds, edges) + "?- p.\n";
  unit.answers = Closure(nodes, edges);
  return unit;
}

Unit AlternatingUnit(Rng* rng, int width) {
  std::vector<int> pattern;
  for (int i = 0; i < width; ++i) pattern.push_back(i % 2);
  const std::vector<std::string> preds = {"a", "b"};
  const int nodes = Uniform(rng, kLoadMinNodes, kLoadMaxNodes);
  const std::vector<Edge> edges =
      ConsistentEdges(rng, nodes, 2, 2 * nodes, {pattern});
  Unit unit;
  unit.source = ClosureRules(preds) + ChainIc(preds, pattern) +
                EdgeFacts(preds, edges) + "?- p.\n";
  unit.answers = Closure(nodes, edges);
  return unit;
}

Unit LoadGoodPathUnit(Rng* rng) {
  const int nodes = Uniform(rng, kLoadMinNodes, kLoadMaxNodes);
  const int threshold = Uniform(rng, 0, nodes / 2);
  std::vector<Edge> steps;
  std::set<std::pair<int, int>> present;
  for (int t = 0; t < 2 * nodes; ++t) {
    int u = Uniform(rng, 0, nodes - 1);
    int v = Uniform(rng, 0, nodes - 1);
    if (u == v) continue;
    if (u > v) std::swap(u, v);
    if (present.insert({u, v}).second) steps.push_back({u, v, 0});
  }
  return GoodPathUnit(nodes, steps, threshold,
                      Distinct(rng, threshold, nodes - 1, 3),
                      Distinct(rng, 0, nodes - 1, 3));
}

struct EdgeSet {
  std::set<Pair> live;
  std::vector<Pair> order;
  void Add(int u, int v) {
    if (live.emplace(u, v).second) order.emplace_back(u, v);
  }
};

// One forward batch: delete `churn` spread-out live edges, insert `churn`
// fresh ones drawn from `candidates`. Returns the forward-state edge set.
std::set<Pair> BuildBatch(const std::string& pred, const EdgeSet& edges,
                          const std::vector<Pair>& candidates, int churn,
                          ChurnView* view) {
  std::set<Pair> forward = edges.live;
  const size_t n = edges.order.size();
  for (int i = 0; i < churn; ++i) {
    const Pair& e = edges.order[static_cast<size_t>(i) * n /
                                static_cast<size_t>(churn)];
    if (forward.erase(e) == 0) continue;
    view->forward_deletes.push_back(Fact(pred, e.first, e.second));
  }
  int fresh = 0;
  for (const Pair& e : candidates) {
    if (fresh == churn) break;
    if (edges.live.count(e) || !forward.insert(e).second) continue;
    view->forward_inserts.push_back(Fact(pred, e.first, e.second));
    ++fresh;
  }
  Require(fresh == churn, "not enough fresh churn edges");
  return forward;
}

std::vector<Edge> AsEdges(const std::set<Pair>& pairs) {
  std::vector<Edge> out;
  for (const Pair& p : pairs) {
    out.push_back({static_cast<int>(p.first), static_cast<int>(p.second), 0});
  }
  return out;
}

ChurnView TcView(Rng* rng) {
  ChurnView view;
  view.name = "tc";
  const int chains = kTcNodes / kTcChainLen;
  // A quarter of the possible (i, i+2) shortcuts, a fixed count, so DRed's
  // rederivation work does not vary with the seed.
  std::vector<int> shortcut(static_cast<size_t>(chains * (kTcChainLen - 2)));
  for (size_t k = 0; k < shortcut.size(); ++k) {
    shortcut[k] = 4 * k < shortcut.size() ? 1 : 0;
  }
  Shuffle(&shortcut, rng);
  EdgeSet edges;
  for (int c = 0; c < chains; ++c) {
    const int base = c * kTcChainLen;
    for (int i = 0; i + 1 < kTcChainLen; ++i) {
      edges.Add(base + i, base + i + 1);
      if (i + 2 < kTcChainLen &&
          shortcut[static_cast<size_t>(c * (kTcChainLen - 2) + i)]) {
        edges.Add(base + i, base + i + 2);
      }
    }
  }
  const int churn =
      std::max<int>(1, static_cast<int>(edges.order.size()) / 100);
  std::vector<Pair> candidates;
  for (int i = 0; i < churn * 8; ++i) {
    const int base = Uniform(rng, 0, chains - 1) * kTcChainLen;
    const int from = Uniform(rng, 0, kTcChainLen - 4);
    candidates.emplace_back(base + from, base + from + 3);
  }
  const std::set<Pair> forward =
      BuildBatch("edge", edges, candidates, churn, &view);
  view.source =
      "tc(X, Y) :- edge(X, Y).\n"
      "tc(X, Z) :- tc(X, Y), edge(Y, Z).\n"
      "?- tc.\n";
  for (const Pair& e : edges.order) {
    view.source += Fact("edge", e.first, e.second) + ".\n";
  }
  view.base = Closure(kTcNodes, AsEdges(edges.live));
  view.forward = Closure(kTcNodes, AsEdges(forward));
  view.edb_facts = static_cast<int64_t>(edges.order.size());
  return view;
}

ChurnView Join2View(Rng* rng) {
  ChurnView view;
  view.name = "join2";
  EdgeSet a, b;
  const size_t per_relation = 4 * kJoinNodes;
  while (a.order.size() < per_relation) {
    a.Add(Uniform(rng, 0, kJoinNodes - 1), Uniform(rng, 0, kJoinNodes - 1));
  }
  while (b.order.size() < per_relation) {
    b.Add(Uniform(rng, 0, kJoinNodes - 1), Uniform(rng, 0, kJoinNodes - 1));
  }
  const int churn = static_cast<int>(2 * per_relation / 100);
  std::vector<Pair> candidates;
  for (int i = 0; i < churn * 4; ++i) {
    candidates.emplace_back(Uniform(rng, 0, kJoinNodes - 1),
                            Uniform(rng, 0, kJoinNodes - 1));
  }
  const std::set<Pair> forward = BuildBatch("a", a, candidates, churn, &view);
  view.source = "q(X, Z) :- a(X, Y), b(Y, Z).\n?- q.\n";
  for (const Pair& e : a.order) {
    view.source += Fact("a", e.first, e.second) + ".\n";
  }
  for (const Pair& e : b.order) {
    view.source += Fact("b", e.first, e.second) + ".\n";
  }
  view.base = Join(a.live, b.live);
  view.forward = Join(forward, b.live);
  view.edb_facts = static_cast<int64_t>(2 * per_relation);
  return view;
}

}  // namespace

uint64_t OpHash(uint64_t seed, uint64_t stream, uint64_t index) {
  return Mix(Mix(Mix(seed) ^ stream) ^ index);
}

ServeInputs MakeServeInputs(uint64_t seed) {
  Rng rng(OpHash(seed, 100, 0));
  ServeInputs in;
  in.units.push_back(FigureOneUnit(&rng));
  in.names.push_back("fig1");
  in.units.push_back(ServeGoodPathUnit(&rng, 0));
  in.names.push_back("goodpath0");
  in.units.push_back(ServeGoodPathUnit(&rng, 60));
  in.names.push_back("goodpath60");
  return in;
}

int ServeOpUnit(uint64_t seed, uint64_t index) {
  return static_cast<int>(OpHash(seed, 1, index) % 3);
}

Unit MakeLoadUnit(uint64_t seed, uint64_t index) {
  // Program shapes cycle with the op index and the seed draws everything
  // else (EDB, which compositions the ICs forbid), so every run sees the
  // same mix of optimizer costs.
  static constexpr std::pair<int, int> kColoredShapes[] = {
      {2, 1}, {2, 2}, {3, 1}, {3, 2}, {3, 3}, {4, 1}, {4, 2}, {4, 3}, {4, 4}};
  Rng rng(OpHash(seed, 2, index));
  const uint64_t shape = index / 3;
  Unit unit;
  switch (index % 3) {
    case 0: {
      const auto [colors, num_ics] = kColoredShapes[shape % 9];
      unit = ColoredClosureUnit(&rng, colors, num_ics);
      break;
    }
    case 1:
      unit = AlternatingUnit(&rng, 2 + static_cast<int>(shape % 4));
      break;
    default:
      unit = LoadGoodPathUnit(&rng);
      break;
  }
  unit.source = "% load op " + std::to_string(seed) + "." +
                std::to_string(index) + "\n" + unit.source;
  return unit;
}

ChurnInputs MakeChurnInputs(uint64_t seed) {
  Rng rng(OpHash(seed, 300, 0));
  ChurnInputs in;
  in.views.push_back(TcView(&rng));
  in.views.push_back(Join2View(&rng));
  return in;
}

int ChurnReadView(uint64_t seed, uint64_t index) {
  return static_cast<int>(OpHash(seed, 3, index) % 2);
}

std::string DescribeServe(const ServeInputs& in) {
  std::ostringstream out;
  for (size_t i = 0; i < in.units.size(); ++i) {
    out << (i ? ", " : "") << in.names[i] << ": "
        << in.units[i].source.size() << " source bytes, "
        << in.units[i].answers.size() << " answers";
  }
  return out.str();
}

std::string DescribeChurn(const ChurnInputs& in) {
  std::ostringstream out;
  for (size_t i = 0; i < in.views.size(); ++i) {
    const ChurnView& v = in.views[i];
    out << (i ? ", " : "") << v.name << ": " << v.edb_facts << " EDB facts, "
        << v.forward_deletes.size() + v.forward_inserts.size()
        << " facts per batch, " << v.base.size() << "/" << v.forward.size()
        << " answers (base/forward)";
  }
  return out.str();
}

}  // namespace sqodbench
