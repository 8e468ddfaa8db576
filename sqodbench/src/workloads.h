// Seeded inputs and their answer oracles for the sqod benchmark.
//
// Every unit is generated as datalog source text, so the program under test
// only ever sees what a client would send. Each unit carries its expected
// answers, computed here by BFS reachability or a hash join over the
// generated EDB, never by the optimizer or the evaluator; every generated
// EDB satisfies the unit's ICs (checked at generation), so the rewritten
// program P' must agree with the oracle.

#ifndef SQODBENCH_WORKLOADS_H_
#define SQODBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace sqodbench {

using Pair = std::pair<int64_t, int64_t>;
using Answers = std::vector<Pair>;  // sorted, duplicate-free

struct Unit {
  std::string source;  // rules, ICs, facts and query declaration
  Answers answers;     // the oracle's query relation
};

// The op stream is a pure function of (seed, op index), so a closed loop
// claiming indices from a shared counter and the single-threaded traced
// replay see the same operations.
uint64_t OpHash(uint64_t seed, uint64_t stream, uint64_t index);

// serve: the Figure-1 a/b closure (large answers) and the Section 3
// goodPath program at 0% and 60% skippable (small answers).
struct ServeInputs {
  std::vector<Unit> units;
  std::vector<std::string> names;
};
ServeInputs MakeServeInputs(uint64_t seed);
// Index into ServeInputs::units of op `index`.
int ServeOpUnit(uint64_t seed, uint64_t index);

// load: a fresh unit per op, each over at most 32 nodes: E4 colored
// closures, a/b closures with one alternating IC of width 2-5, and goodPath
// with the monotone ICs, in a fixed rotation of program shapes. The leading
// comment names the op, so no two ops share a service session.
Unit MakeLoadUnit(uint64_t seed, uint64_t index);

// churn: a Tc view (recursive, DRed) and a Join2 view (non-recursive,
// counting), each with one forward batch of about 1% churn and its inverse.
struct ChurnView {
  std::string name;
  std::string source;
  std::vector<std::string> forward_inserts;  // fact text, e.g. "edge(1, 2)"
  std::vector<std::string> forward_deletes;
  Answers base;     // answers at even snapshot versions
  Answers forward;  // answers at odd snapshot versions
  int64_t edb_facts = 0;
};
struct ChurnInputs {
  std::vector<ChurnView> views;  // [0] = tc, [1] = join2
};
ChurnInputs MakeChurnInputs(uint64_t seed);
// Writer op j touches view j % 2; it is a forward batch when (j / 2) is
// even and the inverse otherwise, so versions alternate base/forward. The
// writer sends batch j once kChurnReadsPerWrite * j reads have completed.
inline constexpr int64_t kChurnReadsPerWrite = 2;
inline int ChurnWriteView(uint64_t j) { return static_cast<int>(j % 2); }
inline bool ChurnWriteForward(uint64_t j) { return (j / 2) % 2 == 0; }
// View read by reader op `index`.
int ChurnReadView(uint64_t seed, uint64_t index);

// One-line size summaries printed with the results.
std::string DescribeServe(const ServeInputs& in);
std::string DescribeChurn(const ChurnInputs& in);

}  // namespace sqodbench

#endif  // SQODBENCH_WORKLOADS_H_
