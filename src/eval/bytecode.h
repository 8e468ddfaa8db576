#ifndef SQOD_EVAL_BYTECODE_H_
#define SQOD_EVAL_BYTECODE_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/ast/program.h"
#include "src/base/status.h"
#include "src/eval/database.h"

namespace sqod {

// Flat register bytecode for rule bodies (docs/evaluator.md, "Compiled
// bytecode"), the only code that runs a rule body: full evaluation, the
// parallel partition tasks and incremental view maintenance all execute
// it. At Prepare time CompileRule lowers each (rule, delta-subgoal) pair
// straight from the AST into a dense instruction array over rule-local
// value registers: join levels open as SCAN_FULL / SCAN_DELTA /
// PROBE_INDEX ops with statically-resolved relation sources and probe
// masks (boundness is a compile-time fact of the body order),
// per-row column ops load or check registers, filters compare pre-resolved
// sources, and EMIT_HEAD materializes the head. The executor is a tight
// dispatch loop with an explicit cursor stack — no per-tuple Kind switches
// over plan objects, no dynamic boundness tests, no binding trail.
// Specialized kernels (src/eval/kernel.h) bypass even the dispatch loop
// for the dominant shapes.

enum class OpCode : uint8_t {
  // Join-level openers; `b` indexes CompiledRule::levels. The opcode
  // mirrors the level's statically-resolved row source: PROBE_INDEX when
  // the level has bound columns (mask != 0), SCAN_DELTA when it reads the
  // semi-naive delta, SCAN_FULL otherwise. A PROBE_INDEX level falls back
  // to its scan actions when indexes are disabled at runtime.
  kScanFull,
  kScanDelta,
  kProbeIndex,
  // Per-row column ops against the current level's row:
  kLoadCol,     // regs[b] = row[a]
  kCheckCol,    // row[a] == regs[b] else next row
  kCheckConst,  // row[a] == consts[b] else next row
  // Control:
  kJump,  // ip = b (skips the scan-action range after probe actions)
  // Filters:
  kFilterCmp,  // EvalCmp(src b, CmpOp a, src c) else next row
  kCheckNeg,   // negs[b] absent else next row
  // Head:
  kEmitHead,  // materialize head, evaluation emit or sink; then next row
};

const char* OpCodeName(OpCode op);

// An argument source: a register id when >= 0, otherwise a constant-pool
// index encoded as ~idx.
using ArgSrc = int32_t;
inline constexpr ArgSrc RegSrc(int32_t reg) { return reg; }
inline constexpr ArgSrc ConstSrc(int32_t idx) { return ~idx; }
inline constexpr bool IsConstSrc(ArgSrc s) { return s < 0; }
inline constexpr int32_t ConstIdx(ArgSrc s) { return ~s; }

// Where a level (or negation check) reads its rows from. Resolved at
// compile time: predicate classification and the delta subgoal are both
// static properties of the plan, so the executor never tests them per row.
enum class RelSource : uint8_t { kEdb, kIdbTotal, kIdbDelta };

// One bytecode instruction. Fixed 12-byte layout; wide operands (probe
// masks, key/argument lists) live in the owning CompiledRule's side tables.
struct Instr {
  OpCode op;
  uint8_t a = 0;   // column index, or CmpOp for kFilterCmp
  int32_t b = 0;   // register / const / level / neg index / jump target
  int32_t c = 0;   // rhs ArgSrc for kFilterCmp
};

// Static description of one join level (one positive subgoal).
struct LevelInfo {
  PredId pred = -1;
  int body_index = -1;  // into rule.body
  RelSource source = RelSource::kEdb;
  int arity = 0;
  uint64_t mask = 0;      // bound columns (compile-time constant)
  uint32_t key_off = 0;   // ArgSrc run in args_pool, mask-column order
  uint16_t key_len = 0;   // == popcount(mask)
  uint32_t open_ip = 0;   // the opener instruction
  uint32_t probe_ip = 0;  // row actions when rows come from an index probe
  uint32_t scan_ip = 0;   // row actions when rows come from a scan
  uint32_t post_ip = 0;   // first op after the row actions
};

// Static description of one negation check.
struct NegInfo {
  PredId pred = -1;
  int body_index = -1;  // into rule.body
  RelSource source = RelSource::kEdb;  // kEdb or kIdbTotal
  int arity = 0;
  uint32_t args_off = 0;  // ArgSrc run in args_pool
  uint16_t args_len = 0;
};

// The kernel chosen for a compiled plan (see src/eval/kernel.h).
enum class KernelId : uint8_t {
  kGeneric = 0,        // bytecode dispatch loop
  kScanFilterEmit = 1, // single subgoal: scan/probe, filter, emit
  kScanProbeEmit = 2,  // binary join: scan x probe on a bound key, emit
};
constexpr int kNumKernels = 3;

const char* KernelName(KernelId k);

// One lowered (rule, delta-subgoal) plan.
struct CompiledRule {
  int rule_index = -1;
  int delta_subgoal = -1;  // body index reading the delta, or -1
  int num_regs = 0;
  PredId head_pred = -1;
  int head_arity = 0;
  uint32_t head_off = 0;  // ArgSrc run in args_pool
  // Head-bound plan (DRed support checks): a prologue loads the head
  // registers from VmContext::head_in before the first level, and the
  // probe masks treat them as bound.
  bool head_bound = false;
  KernelId kernel = KernelId::kGeneric;

  std::vector<Instr> code;
  std::vector<LevelInfo> levels;
  std::vector<NegInfo> negs;
  std::vector<Value> consts;
  std::vector<ArgSrc> args_pool;

  int op_count() const { return static_cast<int>(code.size()); }

  // Human-readable disassembly (one op per line), for tests and EXPLAIN
  // debugging.
  std::string ToString() const;
};

// A whole program lowered to bytecode: per-stratum plan sets plus the
// static evaluation facts (stratification, IDB classification) the
// evaluator would otherwise recompute per request. Immutable once built;
// safe to share across threads (PreparedProgram caches one).
struct CompiledProgram {
  struct Stratum {
    std::vector<int> rule_indices;      // program rule indices, this stratum
    // One full plan (delta_subgoal = -1) per stratum rule, in
    // rule_indices order. Naive iteration runs all of them.
    std::vector<CompiledRule> full;
    // Indices into `full` of the rules with no same-stratum positive IDB
    // subgoal: the semi-naive iteration-0 set.
    std::vector<int> nonrecursive;
    // One plan per (rule, same-stratum positive IDB occurrence).
    std::vector<CompiledRule> delta;
  };

  std::vector<Stratum> strata;
  std::set<PredId> idb_preds;
  int num_rules = 0;
  int max_regs = 0;    // max CompiledRule::num_regs, for scratch sizing
  int max_levels = 0;  // max level count, for the cursor stack
  int64_t compile_ns = 0;  // wall time spent lowering
  int64_t total_ops = 0;   // static op count over all plans

  // Visits every plan in EXPLAIN order: per stratum, its full plans, then
  // its delta plans.
  template <typename F>
  void ForEachRule(F&& f) const {
    for (const Stratum& st : strata) {
      for (const CompiledRule& cr : st.full) f(cr);
      for (const CompiledRule& cr : st.delta) f(cr);
    }
  }
};

// Lowers every (rule, delta-subgoal) plan of `program` to bytecode and
// selects kernels. Fails (like evaluation would) when the program does not
// stratify. The result depends only on the program, never on EvalOptions:
// one artifact serves naive and semi-naive iteration, probes and scans.
Result<CompiledProgram> CompileProgram(const Program& program);

// Lowers one (rule, delta-subgoal) pair straight from the AST, choosing the
// body order greedily as it emits (docs/evaluator.md, "Lowering"). The
// delta subgoal (body index, or -1 for none) opens the body, even when
// negated. `idb_preds` resolves each level's RelSource. `head_bound` treats
// the head variables as bound from the start (DRed support checks).
CompiledRule CompileRule(const Rule& rule, int rule_index, int delta_subgoal,
                         const std::set<PredId>& idb_preds,
                         bool head_bound = false);

struct RuleProfile;

// Which rows a join level or negation check sees. Evaluation reads live
// rows only; incremental maintenance joins the live state, the previous
// snapshot (Relation::LiveAt at VmContext::old_version) and the finite
// change relations (every row) in one activation.
enum class RowView : uint8_t { kLive, kOld, kAll };

// Receives the head tuples of a maintenance activation in place of
// EMIT_HEAD's dedup into out_new. Returning false stops the activation
// (a support check needs one witness, not all of them).
class HeadSink {
 public:
  virtual bool Accept(const Value* head, int n) = 0;

 protected:
  ~HeadSink() = default;
};

// Runtime context for one compiled-rule activation, shared by the generic
// executor and the specialized kernels.
struct VmContext {
  const Database* edb = nullptr;
  const Database* idb_total = nullptr;
  const Database* idb_delta = nullptr;  // null outside delta iterations
  Database* out_new = nullptr;
  bool use_indexes = true;
  int64_t max_derived = -1;  // -1 = unlimited
  RuleProfile* profile = nullptr;
  int64_t* derived_count = nullptr;
  bool* overflow = nullptr;

  // Hash partitioning of the FIRST join level (parallel evaluation): with
  // part_count = P > 1, only rows whose stored row hash lands in partition
  // part_index (hash % P) are sourced at level 0; deeper levels see every
  // row. Rows are filtered before the probe counter (like tombstones), so
  // work counters sum across partitions to the serial counts.
  int part_count = 1;
  int part_index = 0;

  // Reusable scratch, owned by the evaluator and sized once per Evaluate
  // (CompiledProgram::max_regs / max_levels).
  std::vector<Value>* regs = nullptr;
  std::vector<const Relation*>* level_rels = nullptr;
  std::vector<const Relation*>* neg_rels = nullptr;

  // Incremental maintenance only (src/eval/maintain.cc sets these per
  // activation; evaluation leaves them unset). `views`, indexed by
  // LevelInfo::body_index / NegInfo::body_index, picks each level's and
  // negation check's rows; null = all live. `sink` replaces the evaluation
  // emit. `head_in` is the candidate tuple of a head-bound plan.
  const RowView* views = nullptr;
  int64_t old_version = 0;  // the snapshot RowView::kOld reads
  HeadSink* sink = nullptr;
  const Value* head_in = nullptr;
};

// Resolves the relations a plan reads (per level and negation) into the
// context's scratch vectors. Returns false when a *positive* level resolves
// to a missing or empty relation — the plan cannot fire and need not run.
// The maintainer fills level_rels / neg_rels itself, by body position.
bool ResolveRelations(const CompiledRule& rule, VmContext* ctx);

// The evaluation emit (EMIT_HEAD): counts the firing, dedups the head
// against idb_total and out_new, stages a new tuple in out_new and counts
// it derived. Returns false when max_derived overflows (the activation
// stops). Shared by the generic loop and the specialized kernels.
struct EvalEmit {
  VmContext* ctx;
  const CompiledRule* rule;
  int64_t firings = 0, dups = 0, derived = 0;

  bool operator()(const Value* head) {
    ++firings;
    const int n = rule->head_arity;
    if (ctx->idb_total->Contains(rule->head_pred, head, n) ||
        ctx->out_new->Contains(rule->head_pred, head, n)) {
      ++dups;
      return true;
    }
    ctx->out_new->Insert(rule->head_pred, head, n);
    ++derived;
    ++*ctx->derived_count;
    if (ctx->max_derived >= 0 && *ctx->derived_count > ctx->max_derived) {
      *ctx->overflow = true;
      return false;
    }
    return true;
  }
  void Flush(RuleProfile* prof) const;
};

// Executes one compiled rule with the generic bytecode dispatch loop: row
// views when ctx->views is set, the sink when ctx->sink is set, the
// evaluation emit otherwise. The relation vectors must be filled
// (ResolveRelations, or the maintainer).
void RunBytecode(const CompiledRule& rule, VmContext* ctx);

}  // namespace sqod

#endif  // SQOD_EVAL_BYTECODE_H_
