// The incremental-maintenance program families: the rule sets
// ivm_equiv_test drives through delta scripts, and whose maintenance plans
// (delta, support and init bytecode) bytecode_golden_test pins.

#ifndef SQOD_TESTS_IVM_PROGRAMS_H_
#define SQOD_TESTS_IVM_PROGRAMS_H_

namespace sqod {
namespace ivm_programs {

// Recursive strata: DRed.
constexpr const char* kTcRules = R"(
  tc(X, Y) :- edge(X, Y).
  tc(X, Z) :- tc(X, Y), edge(Y, Z).
  ?- tc.
)";

// Non-recursive strata: counting, with a repeated body predicate.
constexpr const char* kJoinRules = R"(
  q(X, Z) :- a(X, Y), b(Y, Z).
  twice(X, Z) :- a(X, Y), a(Y, Z).
  r(X) :- q(X, Y), c(Y).
  ?- r.
)";

// Comparison atoms in counting strata.
constexpr const char* kComparisonRules = R"(
  good(X, Y) :- edge(X, Y), X < Y.
  far(X) :- good(X, Y), Y >= 8.
  ?- far.
)";

// Stratified negation over a recursive stratum.
constexpr const char* kNegationRules = R"(
  reach(X) :- source(X).
  reach(Y) :- reach(X), edge(X, Y).
  unreach(X) :- node(X), !reach(X).
  ?- unreach.
)";

}  // namespace ivm_programs
}  // namespace sqod

#endif  // SQOD_TESTS_IVM_PROGRAMS_H_
