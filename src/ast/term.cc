#include "src/ast/term.h"

#include <atomic>
#include <string>

namespace sqod {

bool Term::operator==(const Term& other) const {
  if (is_var_ != other.is_var_) return false;
  if (is_var_) return var_ == other.var_;
  return value_ == other.value_;
}

bool Term::operator<(const Term& other) const {
  if (is_var_ != other.is_var_) return is_var_;  // variables first
  if (is_var_) return var_ < other.var_;
  return value_ < other.value_;
}

size_t Term::Hash() const {
  if (is_var_) return std::hash<int32_t>()(var_) * 4 + 2;
  return value_.Hash() * 4;
}

std::string Term::ToString() const {
  if (is_var_) return GlobalStrings().Name(var_);
  return value_.ToString();
}

Term FreshVarGen::Next() { return NextLike("_G"); }

Term FreshVarGen::NextLike(std::string_view base) {
  // A name is fresh iff it has never been interned (the global interner
  // remembers every name ever seen). Suffixes come from one process-wide
  // counter shared by every base and thread, so generation never re-probes
  // a suffix it handed out before and keeps no per-base state.
  static std::atomic<int64_t> next_suffix{0};
  for (;;) {
    std::string name = std::string(base) + "#" + std::to_string(next_suffix++);
    bool inserted = false;
    SymbolId id = GlobalStrings().Intern(name, &inserted);
    // Inserted means no one had ever used this name: it is fresh (the
    // interner is thread-safe, so concurrent callers never share one). A
    // hit means the input uses the name; advance and retry.
    if (inserted) return Term::VarFromId(id);
  }
}

}  // namespace sqod
