#include "src/parser/parser.h"

#include <optional>
#include <utility>

#include "src/parser/lexer.h"

namespace sqod {

namespace {

// Recursive-descent parser over the token stream.
class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<ParsedUnit> ParseAll() {
    ParsedUnit unit;
    while (!AtEof()) {
      Status s = ParseClause(&unit);
      if (!s.ok()) return s;
    }
    Status s = unit.program.Validate();
    if (!s.ok()) return s;
    for (const Constraint& ic : unit.constraints) {
      s = unit.program.ValidateConstraint(ic);
      if (!s.ok()) return s;
    }
    // Facts must agree with the arity the program uses.
    for (const Atom& fact : unit.facts) {
      int used = unit.program.Arity(fact.pred());
      if (used != -1 && used != fact.arity()) {
        return Status::InvalidArgument("fact " + fact.ToString() + " has arity " +
                             std::to_string(fact.arity()) +
                             " but the program uses " + PredName(fact.pred()) +
                             "/" + std::to_string(used));
      }
      if (unit.program.IsIdb(fact.pred())) {
        return Status::InvalidArgument("fact " + fact.ToString() +
                             " asserts an IDB predicate; use a rule with an "
                             "empty body instead");
      }
    }
    return unit;
  }

  Result<Rule> ParseSingleRule() {
    ParsedUnit unit;
    Status s = ParseClause(&unit);
    if (!s.ok()) return s;
    if (unit.program.rules().size() == 1) return unit.program.rules()[0];
    if (unit.facts.size() == 1) return Rule(unit.facts[0], {});
    return Status::InvalidArgument("expected a single rule");
  }

  Result<Constraint> ParseSingleConstraint() {
    ParsedUnit unit;
    Status s = ParseClause(&unit);
    if (!s.ok()) return s;
    if (unit.constraints.size() != 1) {
      return Status::InvalidArgument("expected a single integrity constraint");
    }
    return unit.constraints[0];
  }

  Result<Atom> ParseSingleAtom() {
    Result<Atom> atom = ParseAtom();
    if (!atom.ok()) return atom;
    if (!AtEof() && !Check(TokenKind::kDot)) {
      return Status::InvalidArgument("trailing input after atom");
    }
    return atom;
  }

 private:
  const Token& Peek() const { return tokens_[pos_]; }
  const Token& Advance() { return tokens_[pos_++]; }
  bool AtEof() const { return Peek().kind == TokenKind::kEof; }
  bool Check(TokenKind kind) const { return Peek().kind == kind; }
  bool Eat(TokenKind kind) {
    if (!Check(kind)) return false;
    ++pos_;
    return true;
  }

  Status ErrorHere(const std::string& msg) const {
    const Token& t = Peek();
    return Status::InvalidArgument(msg + " at line " + std::to_string(t.line) +
                         ", column " + std::to_string(t.column));
  }

  static std::optional<CmpOp> AsCmpOp(TokenKind kind) {
    switch (kind) {
      case TokenKind::kLt: return CmpOp::kLt;
      case TokenKind::kLe: return CmpOp::kLe;
      case TokenKind::kGt: return CmpOp::kGt;
      case TokenKind::kGe: return CmpOp::kGe;
      case TokenKind::kEq: return CmpOp::kEq;
      case TokenKind::kNe: return CmpOp::kNe;
      default: return std::nullopt;
    }
  }

  Result<Term> ParseTerm() {
    const Token& t = Peek();
    switch (t.kind) {
      case TokenKind::kVariable:
        Advance();
        return Term::Var(t.text);
      case TokenKind::kInteger:
        Advance();
        return Term::Int(t.number);
      case TokenKind::kString:
        Advance();
        return Term::Symbol(t.text);
      case TokenKind::kIdent:
        Advance();
        return Term::Symbol(t.text);
      default:
        return ErrorHere("expected a term");
    }
  }

  Result<Atom> ParseAtom() {
    if (!Check(TokenKind::kIdent)) return ErrorHere("expected a predicate");
    const Token& start = Peek();
    std::string pred = Advance().text;
    std::vector<Term> args;
    if (Eat(TokenKind::kLParen)) {
      if (!Check(TokenKind::kRParen)) {
        do {
          Result<Term> term = ParseTerm();
          if (!term.ok()) return term.status();
          args.push_back(term.take());
        } while (Eat(TokenKind::kComma));
      }
      if (!Eat(TokenKind::kRParen)) return ErrorHere("expected ')'");
    }
    if (args.size() > static_cast<size_t>(kMaxArity)) {
      return Status::InvalidArgument(
          "atom " + pred + "/" + std::to_string(args.size()) + " at line " +
          std::to_string(start.line) + ", column " +
          std::to_string(start.column) + " exceeds the maximum arity " +
          std::to_string(kMaxArity));
    }
    return Atom(pred, std::move(args));
  }

  // Parses one body element: a literal or a comparison.
  Status ParseBodyElement(std::vector<Literal>* body,
                          std::vector<Comparison>* comparisons) {
    if (Eat(TokenKind::kBang)) {
      Result<Atom> atom = ParseAtom();
      if (!atom.ok()) return atom.status();
      body->push_back(Literal::Neg(atom.take()));
      return Status::Ok();
    }
    // Could be an atom, or a comparison starting with a term. An atom starts
    // with an identifier followed by '(' or by a non-comparison token.
    if (Check(TokenKind::kIdent)) {
      size_t save = pos_;
      Result<Atom> atom = ParseAtom();
      if (!atom.ok()) return atom.status();
      // If a comparison operator follows a 0-ary "atom", re-parse as a term.
      if (!AsCmpOp(Peek().kind).has_value() || atom.value().arity() > 0) {
        body->push_back(Literal::Pos(atom.take()));
        return Status::Ok();
      }
      pos_ = save;
    }
    Result<Term> lhs = ParseTerm();
    if (!lhs.ok()) return lhs.status();
    std::optional<CmpOp> op = AsCmpOp(Peek().kind);
    if (!op.has_value()) return ErrorHere("expected a comparison operator");
    Advance();
    Result<Term> rhs = ParseTerm();
    if (!rhs.ok()) return rhs.status();
    comparisons->push_back(Comparison(lhs.take(), *op, rhs.take()));
    return Status::Ok();
  }

  Status ParseBody(std::vector<Literal>* body,
                   std::vector<Comparison>* comparisons) {
    do {
      Status s = ParseBodyElement(body, comparisons);
      if (!s.ok()) return s;
    } while (Eat(TokenKind::kComma));
    if (!Eat(TokenKind::kDot)) return ErrorHere("expected '.'");
    return Status::Ok();
  }

  Status ParseClause(ParsedUnit* unit) {
    if (Eat(TokenKind::kImplies)) {
      // Integrity constraint.
      Constraint ic;
      Status s = ParseBody(&ic.body, &ic.comparisons);
      if (!s.ok()) return s;
      unit->constraints.push_back(std::move(ic));
      return Status::Ok();
    }
    if (Eat(TokenKind::kQuery)) {
      if (!Check(TokenKind::kIdent)) return ErrorHere("expected a predicate");
      unit->program.SetQuery(Advance().text);
      if (!Eat(TokenKind::kDot)) return ErrorHere("expected '.'");
      return Status::Ok();
    }
    Result<Atom> head = ParseAtom();
    if (!head.ok()) return head.status();
    if (Eat(TokenKind::kDot)) {
      // A fact (must be ground).
      if (!head.value().is_ground()) {
        return Status::InvalidArgument("fact " + head.value().ToString() +
                             " is not ground");
      }
      unit->facts.push_back(head.take());
      return Status::Ok();
    }
    if (!Eat(TokenKind::kImplies)) return ErrorHere("expected ':-' or '.'");
    Rule rule;
    rule.head = head.take();
    Status s = ParseBody(&rule.body, &rule.comparisons);
    if (!s.ok()) return s;
    unit->program.AddRule(std::move(rule));
    return Status::Ok();
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

}  // namespace

Result<ParsedUnit> ParseUnit(std::string_view source) {
  Result<std::vector<Token>> tokens = Tokenize(source);
  if (!tokens.ok()) return tokens.status();
  Parser parser(tokens.take());
  return parser.ParseAll();
}

Result<Program> ParseProgram(std::string_view source) {
  Result<ParsedUnit> unit = ParseUnit(source);
  if (!unit.ok()) return unit.status();
  return std::move(unit.value().program);
}

Result<Rule> ParseRule(std::string_view source) {
  Result<std::vector<Token>> tokens = Tokenize(source);
  if (!tokens.ok()) return tokens.status();
  Parser parser(tokens.take());
  return parser.ParseSingleRule();
}

Result<Constraint> ParseConstraint(std::string_view source) {
  Result<std::vector<Token>> tokens = Tokenize(source);
  if (!tokens.ok()) return tokens.status();
  Parser parser(tokens.take());
  return parser.ParseSingleConstraint();
}

Result<Atom> ParseAtomText(std::string_view source) {
  Result<std::vector<Token>> tokens = Tokenize(source);
  if (!tokens.ok()) return tokens.status();
  Parser parser(tokens.take());
  return parser.ParseSingleAtom();
}

}  // namespace sqod
