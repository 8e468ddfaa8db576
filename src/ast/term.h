#ifndef SQOD_AST_TERM_H_
#define SQOD_AST_TERM_H_

#include <string>
#include <string_view>

#include "src/base/value.h"

namespace sqod {

// Identifier of a logical variable. Variables are identified by their
// interned name; rules are standardized apart by renaming when needed.
using VarId = SymbolId;

// A term is a variable or a constant (Datalog is function-free).
class Term {
 public:
  Term() : is_var_(false), value_() {}

  static Term Var(std::string_view name) {
    Term t;
    t.is_var_ = true;
    t.var_ = GlobalStrings().Intern(name);
    return t;
  }
  static Term VarFromId(VarId id) {
    Term t;
    t.is_var_ = true;
    t.var_ = id;
    return t;
  }
  static Term Const(Value v) {
    Term t;
    t.is_var_ = false;
    t.value_ = v;
    return t;
  }
  static Term Int(int64_t v) { return Const(Value::Int(v)); }
  static Term Symbol(std::string_view s) { return Const(Value::Symbol(s)); }

  bool is_var() const { return is_var_; }
  bool is_const() const { return !is_var_; }

  VarId var() const { return var_; }
  const Value& value() const { return value_; }

  bool operator==(const Term& other) const;
  bool operator!=(const Term& other) const { return !(*this == other); }
  // Arbitrary-but-total order, for canonical sorting.
  bool operator<(const Term& other) const;

  size_t Hash() const;
  std::string ToString() const;

 private:
  bool is_var_;
  VarId var_ = -1;
  Value value_;
};

struct TermHash {
  size_t operator()(const Term& t) const { return t.Hash(); }
};

// Generates globally fresh variables, safe to use from any number of
// threads. Suffixes come from one process-wide counter, so generation stays
// O(1) no matter how many fresh names the process has already made.
class FreshVarGen {
 public:
  // Returns a fresh variable named "_G#<n>".
  Term Next();
  // Returns a fresh variable whose name hints at `base` ("<base>#<n>").
  Term NextLike(std::string_view base);
};

}  // namespace sqod

#endif  // SQOD_AST_TERM_H_
