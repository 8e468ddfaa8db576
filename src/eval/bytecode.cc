#include "src/eval/bytecode.h"

#include <algorithm>
#include <cstdio>

#include "src/base/check.h"
#include "src/eval/evaluator.h"
#include "src/eval/kernel.h"
#include "src/eval/relation.h"
#include "src/obs/trace.h"

namespace sqod {

const char* OpCodeName(OpCode op) {
  switch (op) {
    case OpCode::kScanFull: return "SCAN_FULL";
    case OpCode::kScanDelta: return "SCAN_DELTA";
    case OpCode::kProbeIndex: return "PROBE_INDEX";
    case OpCode::kLoadCol: return "LOAD_COL";
    case OpCode::kCheckCol: return "CHECK_COL";
    case OpCode::kCheckConst: return "CHECK_CONST";
    case OpCode::kJump: return "JUMP";
    case OpCode::kFilterCmp: return "FILTER_CMP";
    case OpCode::kCheckNeg: return "CHECK_NEG";
    case OpCode::kEmitHead: return "EMIT_HEAD";
  }
  return "?";
}

const char* KernelName(KernelId k) {
  switch (k) {
    case KernelId::kGeneric: return "generic";
    case KernelId::kScanFilterEmit: return "scan_filter_emit";
    case KernelId::kScanProbeEmit: return "scan_probe_emit";
  }
  return "?";
}

std::string CompiledRule::ToString() const {
  std::string out;
  char line[160];
  std::snprintf(line, sizeof(line),
                "rule %d delta=%d regs=%d kernel=%s ops=%d\n", rule_index,
                delta_subgoal, num_regs, KernelName(kernel), op_count());
  out += line;
  for (size_t ip = 0; ip < code.size(); ++ip) {
    const Instr& in = code[ip];
    switch (in.op) {
      case OpCode::kScanFull:
      case OpCode::kScanDelta:
      case OpCode::kProbeIndex: {
        const LevelInfo& lvl = levels[in.b];
        std::snprintf(line, sizeof(line),
                      "%3zu  %-11s level=%d pred=%s mask=%llx keys=%d\n", ip,
                      OpCodeName(in.op), in.b, PredName(lvl.pred).c_str(),
                      static_cast<unsigned long long>(lvl.mask), lvl.key_len);
        break;
      }
      case OpCode::kLoadCol:
        std::snprintf(line, sizeof(line), "%3zu  %-11s col=%d -> r%d\n", ip,
                      OpCodeName(in.op), in.a, in.b);
        break;
      case OpCode::kCheckCol:
        std::snprintf(line, sizeof(line), "%3zu  %-11s col=%d == r%d\n", ip,
                      OpCodeName(in.op), in.a, in.b);
        break;
      case OpCode::kCheckConst:
        std::snprintf(line, sizeof(line), "%3zu  %-11s col=%d == c%d\n", ip,
                      OpCodeName(in.op), in.a, in.b);
        break;
      case OpCode::kJump:
        std::snprintf(line, sizeof(line), "%3zu  %-11s -> %d\n", ip,
                      OpCodeName(in.op), in.b);
        break;
      case OpCode::kFilterCmp:
        std::snprintf(line, sizeof(line), "%3zu  %-11s %s %s %s\n", ip,
                      OpCodeName(in.op),
                      in.b >= 0 ? ("r" + std::to_string(in.b)).c_str()
                                : ("c" + std::to_string(ConstIdx(in.b))).c_str(),
                      CmpOpName(static_cast<CmpOp>(in.a)),
                      in.c >= 0 ? ("r" + std::to_string(in.c)).c_str()
                                : ("c" + std::to_string(ConstIdx(in.c))).c_str());
        break;
      case OpCode::kCheckNeg: {
        const NegInfo& neg = negs[in.b];
        std::snprintf(line, sizeof(line), "%3zu  %-11s pred=%s args=%d\n", ip,
                      OpCodeName(in.op), PredName(neg.pred).c_str(),
                      neg.args_len);
        break;
      }
      case OpCode::kEmitHead:
        std::snprintf(line, sizeof(line), "%3zu  %-11s pred=%s arity=%d\n", ip,
                      OpCodeName(in.op), PredName(head_pred).c_str(),
                      head_arity);
        break;
    }
    out += line;
  }
  return out;
}

namespace {

// Interns a constant into the rule's pool, deduplicating by equality (pools
// are tiny — a handful of constants per rule at most).
int32_t InternConst(CompiledRule* out, const Value& v) {
  for (size_t i = 0; i < out->consts.size(); ++i) {
    if (out->consts[i] == v) return static_cast<int32_t>(i);
  }
  out->consts.push_back(v);
  return static_cast<int32_t>(out->consts.size() - 1);
}

// One variable of the rule being lowered.
struct VarSlot {
  VarId var;
  int32_t reg = -1;    // assigned when the first placed step mentions it
  bool bound = false;  // loaded by an earlier join level, or by the head
};

}  // namespace

CompiledRule CompileRule(const Rule& rule, int rule_index, int delta_subgoal,
                         const std::set<PredId>& idb_preds, bool head_bound) {
  CompiledRule out;
  out.rule_index = rule_index;
  out.delta_subgoal = delta_subgoal;
  out.head_pred = rule.head.pred();
  out.head_arity = rule.head.arity();
  out.head_bound = head_bound;
  SQOD_CHECK_MSG(rule.head.arity() <= Relation::kMaxArity,
                 rule.head.ToString().c_str());

  // Sized up front: two action ranges (≤ 2 instrs per atom column each)
  // plus opener/jump per level, two per filter, one emit.
  size_t code_guess = 1 + 2 * rule.comparisons.size();
  size_t args_guess = rule.head.args().size();
  for (const Literal& l : rule.body) {
    code_guess += 2 * l.atom.args().size() + 2;
    args_guess += l.atom.args().size();
  }
  out.code.reserve(code_guess);
  out.args_pool.reserve(args_guess);

  // Registers are numbered in order of first appearance along the placed
  // steps. Boundness is a static property of the placement order, tracked
  // here so the executor never tests it: a variable is bound from the first
  // join level that loads it (from the start for a head-bound plan, whose
  // prologue loads the head registers from a candidate tuple).
  std::vector<VarSlot> vars;
  auto slot = [&](VarId v) -> VarSlot& {
    for (VarSlot& s : vars) {
      if (s.var == v) return s;
    }
    vars.push_back({v});
    return vars.back();
  };
  auto is_bound = [&](const Term& t) {
    return t.is_const() || slot(t.var()).bound;
  };
  auto reg_of = [&](const Term& t) {
    VarSlot& s = slot(t.var());
    if (s.reg < 0) s.reg = out.num_regs++;
    return s.reg;
  };
  auto lower_arg = [&](const Term& t) -> ArgSrc {
    return t.is_const() ? ConstSrc(InternConst(&out, t.value()))
                        : RegSrc(reg_of(t));
  };
  if (head_bound) {
    for (const Term& t : rule.head.args()) {
      if (t.is_var()) slot(t.var()).bound = true;
    }
  }

  // The delta subgoal opens the body even when negated: the maintainer's
  // delta of "not B" is a scan over the finite change to B.
  auto negated = [&](size_t i) {
    return rule.body[i].negated && static_cast<int>(i) != delta_subgoal;
  };
  std::vector<uint8_t> done_body(rule.body.size(), 0);
  std::vector<uint8_t> done_cmp(rule.comparisons.size(), 0);

  auto place_join = [&](int index) {
    const Atom& a = rule.body[index].atom;
    SQOD_CHECK_MSG(a.arity() <= Relation::kMaxArity, a.ToString().c_str());
    LevelInfo lvl;
    lvl.pred = a.pred();
    lvl.body_index = index;
    if (idb_preds.count(a.pred()) == 0) {
      lvl.source = RelSource::kEdb;
    } else if (index == delta_subgoal) {
      lvl.source = RelSource::kIdbDelta;
    } else {
      lvl.source = RelSource::kIdbTotal;
    }
    lvl.arity = a.arity();
    const std::vector<Term>& args = a.args();
    int32_t regs[Relation::kMaxArity];
    for (int i = 0; i < lvl.arity; ++i) {
      regs[i] = args[i].is_const() ? -1 : reg_of(args[i]);
    }

    // The probe mask: constants plus variables bound by EARLIER levels (or
    // by the head prologue). A variable first bound by this atom is unbound
    // for masking purposes even when it repeats within the atom (the repeat
    // becomes an unmasked register compare against the freshly loaded
    // column).
    uint64_t first_load = 0;
    for (int i = 0; i < lvl.arity; ++i) {
      if (is_bound(args[i])) {
        lvl.mask |= uint64_t{1} << i;
      } else if (std::find(regs, regs + i, regs[i]) == regs + i) {
        first_load |= uint64_t{1} << i;
      }
    }
    for (const Term& t : args) {
      if (t.is_var()) slot(t.var()).bound = true;
    }

    // Key sources, in mask-column order (what Relation::Probe expects).
    lvl.key_off = static_cast<uint32_t>(out.args_pool.size());
    for (int i = 0; i < lvl.arity; ++i) {
      if ((lvl.mask >> i) & 1) {
        out.args_pool.push_back(lower_arg(args[i]));
        ++lvl.key_len;
      }
    }

    Instr open;
    open.op = lvl.mask != 0 ? OpCode::kProbeIndex
              : lvl.source == RelSource::kIdbDelta ? OpCode::kScanDelta
                                                   : OpCode::kScanFull;
    open.b = static_cast<int32_t>(out.levels.size());
    lvl.open_ip = static_cast<uint32_t>(out.code.size());
    out.code.push_back(open);

    // Probe-action range: rows from an index probe already match every
    // masked column, so only unmasked columns need work — loads for first
    // occurrences, register compares for in-atom repeats.
    lvl.probe_ip = static_cast<uint32_t>(out.code.size());
    for (int i = 0; i < lvl.arity; ++i) {
      if ((lvl.mask >> i) & 1) continue;
      Instr in;
      in.a = static_cast<uint8_t>(i);
      in.b = regs[i];
      in.op = (first_load >> i) & 1 ? OpCode::kLoadCol : OpCode::kCheckCol;
      out.code.push_back(in);
    }
    // Skip the scan-action range below.
    const size_t jmp_ip = out.code.size();
    out.code.push_back({OpCode::kJump});

    // Scan-action range: rows from a full scan (no index, or indexes
    // disabled at runtime) must check every column.
    lvl.scan_ip = static_cast<uint32_t>(out.code.size());
    for (int i = 0; i < lvl.arity; ++i) {
      Instr in;
      in.a = static_cast<uint8_t>(i);
      if (args[i].is_const()) {
        in.op = OpCode::kCheckConst;
        in.b = InternConst(&out, args[i].value());
      } else {
        in.op = (first_load >> i) & 1 ? OpCode::kLoadCol : OpCode::kCheckCol;
        in.b = regs[i];
      }
      out.code.push_back(in);
    }
    lvl.post_ip = static_cast<uint32_t>(out.code.size());
    out.code[jmp_ip].b = static_cast<int32_t>(lvl.post_ip);
    out.levels.push_back(lvl);
    done_body[index] = 1;
  };

  // Comparisons and negations go at the earliest point where all their
  // variables are bound.
  auto place_ready_filters = [&] {
    bool progress = true;
    while (progress) {
      progress = false;
      for (size_t i = 0; i < rule.comparisons.size(); ++i) {
        const Comparison& c = rule.comparisons[i];
        if (done_cmp[i] || !is_bound(c.lhs) || !is_bound(c.rhs)) continue;
        Instr in{OpCode::kFilterCmp, static_cast<uint8_t>(c.op)};
        in.b = lower_arg(c.lhs);
        in.c = lower_arg(c.rhs);
        out.code.push_back(in);
        done_cmp[i] = 1;
        progress = true;
      }
      for (size_t i = 0; i < rule.body.size(); ++i) {
        const Atom& a = rule.body[i].atom;
        if (done_body[i] || !negated(i) ||
            !std::all_of(a.args().begin(), a.args().end(), is_bound)) {
          continue;
        }
        SQOD_CHECK_MSG(a.arity() <= Relation::kMaxArity, a.ToString().c_str());
        NegInfo neg;
        neg.pred = a.pred();
        neg.body_index = static_cast<int>(i);
        neg.source = idb_preds.count(a.pred()) > 0 ? RelSource::kIdbTotal
                                                   : RelSource::kEdb;
        neg.arity = a.arity();
        neg.args_off = static_cast<uint32_t>(out.args_pool.size());
        neg.args_len = static_cast<uint16_t>(a.arity());
        for (const Term& t : a.args()) out.args_pool.push_back(lower_arg(t));
        out.code.push_back(
            {OpCode::kCheckNeg, 0, static_cast<int32_t>(out.negs.size())});
        out.negs.push_back(neg);
        done_body[i] = 1;
        progress = true;
      }
    }
  };

  place_ready_filters();  // ground comparisons, if any
  if (delta_subgoal >= 0) {
    place_join(delta_subgoal);
    place_ready_filters();
  }
  for (;;) {
    // Pick the positive subgoal with the most bound argument positions —
    // more bound keys means a narrower index probe. Ties break toward the
    // fewest unbound positions: with equal probe selectivity, the subgoal
    // introducing fewer free variables grows the binding set least, so the
    // joins downstream of it scan smaller intermediates. Equal on both
    // counts keeps body order.
    int best = -1;
    int best_score = -1;
    int best_unbound = -1;
    for (size_t i = 0; i < rule.body.size(); ++i) {
      if (done_body[i] || negated(i)) continue;
      const std::vector<Term>& args = rule.body[i].atom.args();
      const int score =
          static_cast<int>(std::count_if(args.begin(), args.end(), is_bound));
      const int unbound = static_cast<int>(args.size()) - score;
      if (score > best_score ||
          (score == best_score && unbound < best_unbound)) {
        best_score = score;
        best_unbound = unbound;
        best = static_cast<int>(i);
      }
    }
    if (best == -1) break;
    place_join(best);
    place_ready_filters();
  }
  // Safety guarantees every negation and comparison was placed.
  for (size_t i = 0; i < rule.body.size(); ++i) {
    SQOD_CHECK_MSG(done_body[i], rule.ToString().c_str());
  }
  for (size_t i = 0; i < rule.comparisons.size(); ++i) {
    SQOD_CHECK_MSG(done_cmp[i], rule.ToString().c_str());
  }

  const int body_regs = out.num_regs;
  out.head_off = static_cast<uint32_t>(out.args_pool.size());
  for (const Term& t : rule.head.args()) out.args_pool.push_back(lower_arg(t));
  // Safety: every head variable occurs in the body, so lowering the head
  // assigned no new register (an unloaded one would leak garbage values).
  SQOD_CHECK_MSG(out.num_regs == body_regs, rule.ToString().c_str());
  out.code.push_back({OpCode::kEmitHead});

  out.kernel = SelectKernel(out);
  return out;
}

Result<CompiledProgram> CompileProgram(const Program& program) {
  const int64_t t0 = NowNs();
  Result<std::map<PredId, int>> strata = program.Stratify();
  if (!strata.ok()) return strata.status();
  int max_stratum = 0;
  for (const auto& [pred, s] : strata.value()) {
    max_stratum = std::max(max_stratum, s);
  }

  CompiledProgram out;
  out.idb_preds = program.IdbPreds();
  const std::vector<Rule>& rules = program.rules();
  out.num_rules = static_cast<int>(rules.size());
  out.strata.resize(max_stratum + 1);

  auto lower = [&](const Rule& rule, int rule_index, int first) {
    CompiledRule cr = CompileRule(rule, rule_index, first, out.idb_preds);
    out.max_regs = std::max(out.max_regs, cr.num_regs);
    out.max_levels = std::max(out.max_levels, static_cast<int>(cr.levels.size()));
    out.total_ops += cr.op_count();
    return cr;
  };

  for (int stratum = 0; stratum <= max_stratum; ++stratum) {
    CompiledProgram::Stratum& st = out.strata[stratum];
    for (int r = 0; r < static_cast<int>(rules.size()); ++r) {
      if (strata.value().at(rules[r].head.pred()) == stratum) {
        st.rule_indices.push_back(r);
      }
    }
    // Same-stratum positive IDB subgoal body indices, per rule — the rules
    // they belong to iterate from deltas; the rest seed iteration 0.
    std::map<int, std::vector<int>> recursive_subgoals;
    for (int r : st.rule_indices) {
      for (size_t i = 0; i < rules[r].body.size(); ++i) {
        const Literal& l = rules[r].body[i];
        if (!l.negated && out.idb_preds.count(l.atom.pred()) > 0 &&
            strata.value().at(l.atom.pred()) == stratum) {
          recursive_subgoals[r].push_back(static_cast<int>(i));
        }
      }
    }
    for (size_t i = 0; i < st.rule_indices.size(); ++i) {
      const int r = st.rule_indices[i];
      st.full.push_back(lower(rules[r], r, -1));
      if (recursive_subgoals.count(r) == 0) {
        st.nonrecursive.push_back(static_cast<int>(i));
      }
    }
    for (const auto& [r, occurrences] : recursive_subgoals) {
      for (int occurrence : occurrences) {
        st.delta.push_back(lower(rules[r], r, occurrence));
      }
    }
  }
  out.compile_ns = NowNs() - t0;
  return out;
}

namespace {

inline const Database* SourceDb(RelSource source, const VmContext& ctx) {
  switch (source) {
    case RelSource::kEdb: return ctx.edb;
    case RelSource::kIdbTotal: return ctx.idb_total;
    case RelSource::kIdbDelta: return ctx.idb_delta;
  }
  return nullptr;
}

// One open join level in the generic executor. Deliberately trivial: the
// opener sets every field it later reads, so the per-activation cursor
// stack costs no initialization.
struct Cursor {
  const Relation* rel;
  const Value* row_data;  // current row
  // Index-probe chain state (is_scan == false):
  int32_t probe_row;
  const int32_t* next;
  // Scan state (is_scan == true):
  int64_t scan_row;
  int64_t scan_end;
  bool is_scan;
  RowView view;
  uint32_t actions_ip;  // probe_ip or scan_ip, chosen when opened
  int32_t level;
};

// True when row `r` is visible under `view`. Probe chains and scans both
// include tombstones; every view filters them before the probe counter.
inline bool Visible(const Relation* rel, int64_t r, RowView view,
                    int64_t old_v) {
  switch (view) {
    case RowView::kLive: return rel->live(r);
    case RowView::kOld: return rel->LiveAt(r, old_v);
    case RowView::kAll: return true;
  }
  return false;
}

// Membership of `key` in `rel` under `view` (CHECK_NEG).
inline bool Present(const Relation* rel, const Value* key, int n,
                    RowView view, int64_t old_v) {
  if (view == RowView::kLive) return rel->Contains(key, n);
  const int32_t r = rel->FindRow(key, n);
  return r >= 0 && (view == RowView::kAll || rel->LiveAt(r, old_v));
}

// Hands each head tuple to the caller's sink (maintenance).
struct SinkEmit {
  HeadSink* sink;
  int arity;
  int64_t firings = 0;

  bool operator()(const Value* head) {
    ++firings;
    return sink->Accept(head, arity);
  }
  void Flush(RuleProfile* prof) const { prof->firings += firings; }
};

// Loads the head registers of a head-bound plan from the candidate tuple.
// False when the candidate contradicts the head: a constant mismatch, or a
// repeated head variable bound to two different values.
bool LoadHead(const CompiledRule& rule, const Value* t, Value* regs) {
  const ArgSrc* head = rule.args_pool.data() + rule.head_off;
  for (int i = 0; i < rule.head_arity; ++i) {
    const ArgSrc s = head[i];
    if (IsConstSrc(s)) {
      if (rule.consts[ConstIdx(s)] != t[i]) return false;
    } else if (std::find(head, head + i, s) == head + i) {
      regs[s] = t[i];
    } else if (regs[s] != t[i]) {
      return false;
    }
  }
  return true;
}

// The generic dispatch loop. `Emit` is the evaluation emit or the
// maintenance sink; kViews selects per-level row views. Both are fixed per
// activation, so the evaluation instantiation pays no per-row view test
// and no per-tuple emit branch.
template <typename Emit, bool kViews>
void RunLoop(const CompiledRule& rule, VmContext* ctx, Emit emit) {
  const Instr* code = rule.code.data();
  const Value* consts = rule.consts.data();
  const ArgSrc* args_pool = rule.args_pool.data();
  Value* regs = ctx->regs->data();
  const std::vector<const Relation*>& level_rels = *ctx->level_rels;
  const std::vector<const Relation*>& neg_rels = *ctx->neg_rels;
  const int64_t old_v = ctx->old_version;

  // Local accumulators, flushed once on exit: the dispatch loop touches no
  // profile memory per instruction.
  int64_t ops = 0, probes = 0, cmps = 0;

  // The cursor stack: one entry per open join level, innermost on top.
  // Realistic rules have a handful of levels; the heap path covers the rest.
  constexpr int kInlineLevels = 16;
  Cursor inline_stack[kInlineLevels];
  std::vector<Cursor> heap_stack;
  Cursor* stack = inline_stack;
  if (rule.levels.size() > kInlineLevels) {
    heap_stack.resize(rule.levels.size());
    stack = heap_stack.data();
  }
  int depth = 0;

  // Hash-partition filter for the first join level (parallel evaluation).
  // Hoisted: the unpartitioned path pays one register test per row.
  const uint64_t part_count = static_cast<uint64_t>(ctx->part_count);
  const uint64_t part_index = static_cast<uint64_t>(ctx->part_index);
  const bool partitioned = part_count > 1;

  Value key[Relation::kMaxArity];

  auto src_value = [&](ArgSrc s) -> const Value& {
    return IsConstSrc(s) ? consts[ConstIdx(s)] : regs[s];
  };

  uint32_t ip = 0;
  bool done = rule.head_bound && !LoadHead(rule, ctx->head_in, regs);
  while (!done) {
    const Instr& in = code[ip];
    ++ops;
    switch (in.op) {
      case OpCode::kScanFull:
      case OpCode::kScanDelta:
      case OpCode::kProbeIndex: {
        const LevelInfo& lvl = rule.levels[in.b];
        const Relation* rel = level_rels[in.b];
        Cursor& cur = stack[depth];
        cur.rel = rel;
        cur.level = in.b;
        cur.row_data = nullptr;
        cur.view = kViews ? ctx->views[lvl.body_index] : RowView::kLive;
        if (rel == nullptr || rel->empty()) {
          // Level cannot match: backtrack (fall through to advance below).
          cur.is_scan = true;
          cur.scan_row = 0;
          cur.scan_end = 0;
        } else if (in.op == OpCode::kProbeIndex && ctx->use_indexes) {
          for (int k = 0; k < lvl.key_len; ++k) {
            key[k] = src_value(args_pool[lvl.key_off + k]);
          }
          Relation::Matches m = rel->Probe(lvl.mask, key);
          cur.is_scan = false;
          cur.probe_row = m.row;
          cur.next = m.next;
          cur.actions_ip = lvl.probe_ip;
        } else {
          cur.is_scan = true;
          cur.scan_row = 0;
          cur.scan_end = rel->size();
          cur.actions_ip = lvl.scan_ip;
        }
        ++depth;
        // Fetch the first row (or backtrack if none) via the shared
        // advance path below.
        break;
      }
      case OpCode::kLoadCol: {
        regs[in.b] = stack[depth - 1].row_data[in.a];
        ++ip;
        continue;
      }
      case OpCode::kCheckCol: {
        if (stack[depth - 1].row_data[in.a] == regs[in.b]) {
          ++ip;
          continue;
        }
        break;  // row rejected: advance
      }
      case OpCode::kCheckConst: {
        if (stack[depth - 1].row_data[in.a] == consts[in.b]) {
          ++ip;
          continue;
        }
        break;
      }
      case OpCode::kJump: {
        ip = static_cast<uint32_t>(in.b);
        continue;
      }
      case OpCode::kFilterCmp: {
        ++cmps;
        if (EvalCmp(src_value(in.b), static_cast<CmpOp>(in.a), src_value(in.c))) {
          ++ip;
          continue;
        }
        break;
      }
      case OpCode::kCheckNeg: {
        const NegInfo& neg = rule.negs[in.b];
        const Relation* rel = neg_rels[in.b];
        bool present = false;
        if (rel != nullptr) {
          for (int k = 0; k < neg.args_len; ++k) {
            key[k] = src_value(args_pool[neg.args_off + k]);
          }
          if constexpr (kViews) {
            present = Present(rel, key, neg.args_len,
                              ctx->views[neg.body_index], old_v);
          } else {
            present = rel->Contains(key, neg.args_len);
          }
        }
        if (!present) {
          ++ip;
          continue;
        }
        break;
      }
      case OpCode::kEmitHead: {
        Value head[Relation::kMaxArity];
        for (int i = 0; i < rule.head_arity; ++i) {
          head[i] = src_value(args_pool[rule.head_off + i]);
        }
        done = !emit(head);
        break;  // complete match consumed: advance the innermost cursor
      }
    }
    if (done) break;

    // Advance: fetch the next row of the innermost cursor; pop exhausted
    // cursors; an empty stack means the activation is complete.
    for (;;) {
      if (depth == 0) {
        done = true;
        break;
      }
      Cursor& cur = stack[depth - 1];
      // Invisible rows — tombstones, or rows outside the level's view —
      // and, at a partitioned level 0, rows of other partitions are skipped
      // before the probe counter, like the specialized kernels do.
      auto skip = [&](int64_t r) {
        const bool visible = kViews ? Visible(cur.rel, r, cur.view, old_v)
                                    : cur.rel->live(r);
        return !visible || (partitioned && cur.level == 0 &&
                            cur.rel->row_hash(r) % part_count != part_index);
      };
      bool have_row = false;
      if (cur.is_scan) {
        while (cur.scan_row < cur.scan_end && skip(cur.scan_row)) {
          ++cur.scan_row;
        }
        if (cur.scan_row < cur.scan_end) {
          cur.row_data = cur.rel->row(cur.scan_row).data();
          ++cur.scan_row;
          have_row = true;
        }
      } else {
        while (cur.probe_row >= 0 && skip(cur.probe_row)) {
          cur.probe_row = cur.next[cur.probe_row];
        }
        if (cur.probe_row >= 0) {
          cur.row_data = cur.rel->row(cur.probe_row).data();
          cur.probe_row = cur.next[cur.probe_row];
          have_row = true;
        }
      }
      if (have_row) {
        ++probes;  // one candidate row examined
        ip = cur.actions_ip;
        break;
      }
      --depth;  // exhausted: backtrack to the enclosing level
    }
  }

  RuleProfile* prof = ctx->profile;
  prof->probes += probes;
  prof->cmp_checks += cmps;
  prof->ops += ops;
  emit.Flush(prof);
}

}  // namespace

void EvalEmit::Flush(RuleProfile* prof) const {
  prof->firings += firings;
  prof->duplicates += dups;
  prof->derived += derived;
}

bool ResolveRelations(const CompiledRule& rule, VmContext* ctx) {
  // Pointers into Database's unordered_map are invalidated by rehash on
  // insert of a *new* predicate, so relations are re-resolved per rule
  // activation and never cached across iterations.
  ctx->level_rels->clear();
  for (const LevelInfo& lvl : rule.levels) {
    const Database* db = SourceDb(lvl.source, *ctx);
    ctx->level_rels->push_back(db == nullptr ? nullptr : db->Find(lvl.pred));
  }
  ctx->neg_rels->clear();
  for (const NegInfo& neg : rule.negs) {
    const Database* db = SourceDb(neg.source, *ctx);
    ctx->neg_rels->push_back(db == nullptr ? nullptr : db->Find(neg.pred));
  }
  // A missing/empty relation at the FIRST level means zero work: no
  // counter can move. Deeper levels must still run (outer probes are
  // observable), so only level 0 prunes.
  if (!rule.levels.empty()) {
    const Relation* r0 = (*ctx->level_rels)[0];
    if (r0 == nullptr || r0->empty()) return false;
  }
  return true;
}

void RunBytecode(const CompiledRule& rule, VmContext* ctx) {
  if (ctx->sink != nullptr) {
    SinkEmit emit{ctx->sink, rule.head_arity};
    if (ctx->views != nullptr) {
      RunLoop<SinkEmit, true>(rule, ctx, emit);
    } else {
      RunLoop<SinkEmit, false>(rule, ctx, emit);
    }
    return;
  }
  EvalEmit emit{ctx, &rule};
  if (ctx->views != nullptr) {
    RunLoop<EvalEmit, true>(rule, ctx, emit);
  } else {
    RunLoop<EvalEmit, false>(rule, ctx, emit);
  }
}

}  // namespace sqod
