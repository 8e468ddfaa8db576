// Golden test for the lowering: every field of every CompiledRule the
// compiler emits must match tests/golden/bytecode.golden — instructions
// with operands, join levels (source, mask, key run, probe/scan/post ips),
// negation checks, the constant pool, the argument pool, the register
// count, head-bound flag and kernel choice.
//
// Coverage: every full and semi-naive delta plan CompileProgram builds over
// the evaluator corpus (tests/eval_corpus.h), and every delta, support and
// init plan BuildMaintenancePlan builds over that corpus and over the
// incremental-maintenance program families (tests/ivm_programs.h). The
// bench slices and fuzz cases store FNV-1a hashes of their compile and
// maintain lines instead of the plans themselves.
//
// On a mismatch the full actual golden is written next to the test binary
// (bytecode.golden.actual), ready to diff against the committed file.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/eval/bytecode.h"
#include "src/eval/maintain.h"
#include "src/parser/parser.h"
#include "tests/eval_corpus.h"
#include "tests/ivm_programs.h"

namespace sqod {
namespace {

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

const char* SourceName(RelSource s) {
  switch (s) {
    case RelSource::kEdb: return "edb";
    case RelSource::kIdbTotal: return "total";
    case RelSource::kIdbDelta: return "delta";
  }
  return "?";
}

std::string ValueText(const Value& v) {
  return v.is_int() ? v.ToString() : "'" + v.ToString() + "'";
}

// Every field of `cr` on one line.
std::string Dump(const CompiledRule& cr) {
  std::ostringstream out;
  out << "rule=" << cr.rule_index << " delta=" << cr.delta_subgoal
      << " regs=" << cr.num_regs << " head=" << PredName(cr.head_pred) << "/"
      << cr.head_arity << "@" << cr.head_off
      << " head_bound=" << cr.head_bound
      << " kernel=" << KernelName(cr.kernel) << " ; code=";
  for (size_t ip = 0; ip < cr.code.size(); ++ip) {
    const Instr& in = cr.code[ip];
    out << (ip == 0 ? "" : ",") << OpCodeName(in.op) << "(" << int{in.a}
        << " " << in.b << " " << in.c << ")";
  }
  out << " ; levels=";
  for (const LevelInfo& l : cr.levels) {
    out << "[" << PredName(l.pred) << " body=" << l.body_index << " "
        << SourceName(l.source) << " arity=" << l.arity << " mask=" << std::hex
        << l.mask << std::dec << " key=" << l.key_off << "+" << l.key_len
        << " ip=" << l.open_ip << "/" << l.probe_ip << "/" << l.scan_ip << "/"
        << l.post_ip << "]";
  }
  out << " ; negs=";
  for (const NegInfo& n : cr.negs) {
    out << "[" << PredName(n.pred) << " body=" << n.body_index << " "
        << SourceName(n.source) << " arity=" << n.arity
        << " args=" << n.args_off << "+" << n.args_len << "]";
  }
  out << " ; consts=";
  for (size_t i = 0; i < cr.consts.size(); ++i) {
    out << (i == 0 ? "" : ",") << ValueText(cr.consts[i]);
  }
  out << " ; args=";
  for (size_t i = 0; i < cr.args_pool.size(); ++i) {
    out << (i == 0 ? "" : ",") << cr.args_pool[i];
  }
  return out.str();
}

using Lines = std::vector<std::pair<std::string, std::string>>;

// Golden lines for one program, keyed "<label> compile ..." and
// "<label> maintain ...".
void LowerProgram(const std::string& label, const Program& program,
                  Lines* out) {
  Result<CompiledProgram> compiled = CompileProgram(program);
  if (!compiled.ok()) {
    out->push_back({label + " compile", "error"});
  } else {
    const CompiledProgram& cp = compiled.value();
    std::ostringstream summary;
    summary << "rules=" << cp.num_rules << " max_regs=" << cp.max_regs
            << " max_levels=" << cp.max_levels
            << " total_ops=" << cp.total_ops;
    for (size_t s = 0; s < cp.strata.size(); ++s) {
      summary << " s" << s << "=";
      for (int r : cp.strata[s].rule_indices) summary << r << ",";
      summary << "/";
      for (int r : cp.strata[s].nonrecursive) summary << r << ",";
    }
    out->push_back({label + " compile", summary.str()});
    for (size_t s = 0; s < cp.strata.size(); ++s) {
      const std::string prefix = label + " compile s" + std::to_string(s);
      for (size_t i = 0; i < cp.strata[s].full.size(); ++i) {
        out->push_back({prefix + " full " + std::to_string(i),
                        Dump(cp.strata[s].full[i])});
      }
      for (size_t i = 0; i < cp.strata[s].delta.size(); ++i) {
        out->push_back({prefix + " delta " + std::to_string(i),
                        Dump(cp.strata[s].delta[i])});
      }
    }
  }

  Result<MaintenancePlan> plan = BuildMaintenancePlan(program);
  if (!plan.ok()) {
    out->push_back({label + " maintain", "error"});
    return;
  }
  out->push_back({label + " maintain",
                  "max_regs=" + std::to_string(plan.value().max_regs)});
  for (const MaintenancePlan::RuleMaint& rm : plan.value().rules) {
    const std::string prefix =
        label + " maintain r" + std::to_string(rm.rule_index);
    for (size_t i = 0; i < rm.delta_plans.size(); ++i) {
      out->push_back(
          {prefix + " delta " + std::to_string(i), Dump(rm.delta_plans[i])});
    }
    out->push_back({prefix + " support", Dump(rm.support_plan)});
    out->push_back({prefix + " init", Dump(rm.init_plan)});
  }
}

// A hashed case contributes two lines: the hash of its compile lines and the
// hash of its maintain lines.
void HashProgram(const std::string& label, const Program& program,
                 Lines* out) {
  Lines lines;
  LowerProgram(label, program, &lines);
  std::string compile, maintain;
  for (const auto& [key, value] : lines) {
    std::string& sink =
        key.compare(label.size(), 8, " compile") == 0 ? compile : maintain;
    sink += key + " | " + value + "\n";
  }
  out->push_back({label + " compile", Hash(compile)});
  out->push_back({label + " maintain", Hash(maintain)});
}

Lines ActualLines() {
  Lines out;
  for (const corpus::Case& c : corpus::NamedCases()) {
    if (c.all_configs) {
      LowerProgram(c.label, c.program, &out);
    } else {
      HashProgram(c.label, c.program, &out);
    }
  }
  const std::pair<const char*, const char*> families[] = {
      {"ivm_tc", ivm_programs::kTcRules},
      {"ivm_join", ivm_programs::kJoinRules},
      {"ivm_comparison", ivm_programs::kComparisonRules},
      {"ivm_negation", ivm_programs::kNegationRules},
  };
  for (const auto& [label, rules] : families) {
    Result<Program> program = ParseProgram(rules);
    SQOD_CHECK_MSG(program.ok(), program.status().message().c_str());
    LowerProgram(label, program.value(), &out);
  }
  for (const corpus::Case& c : corpus::FuzzCases()) {
    HashProgram(c.label, c.program, &out);
  }
  return out;
}

// Golden line: "<key> | <value>", split at the first " | ".
std::map<std::string, std::string> GoldenLines() {
  std::map<std::string, std::string> out;
  std::ifstream in(std::string(SQOD_TESTS_DIR) + "/golden/bytecode.golden");
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t bar = line.find(" | ");
    out[line.substr(0, bar)] = line.substr(bar + 3);
  }
  return out;
}

void WriteActual(const Lines& lines) {
  std::ofstream out(SQOD_BYTECODE_ACTUAL);
  out << "# Lowered bytecode, pinned for tests/bytecode_golden_test.cc.\n"
         "# <case> compile | program summary; <case> compile s<stratum> "
         "full|delta <i> | plan\n"
         "# <case> maintain | max_regs; <case> maintain r<rule> "
         "delta <i>|support|init | plan\n"
         "# Bench slices and fuzz cases hold FNV-1a hashes of their compile "
         "and maintain lines.\n";
  for (const auto& [key, value] : lines) out << key << " | " << value << "\n";
}

TEST(BytecodeGoldenTest, EveryLoweredPlanMatchesTheGolden) {
  const Lines actual = ActualLines();
  const std::map<std::string, std::string> golden = GoldenLines();
  if (golden.empty()) {
    WriteActual(actual);
    FAIL() << "tests/golden/bytecode.golden is missing or empty";
  }

  int mismatches = 0;
  std::map<std::string, int> seen;
  for (const auto& [key, value] : actual) {
    ASSERT_EQ(++seen[key], 1) << "duplicate key " << key;
    auto it = golden.find(key);
    if (it == golden.end()) {
      ADD_FAILURE() << "no golden for " << key;
      ++mismatches;
    } else if (it->second != value) {
      ADD_FAILURE() << key << " diverged from the golden\n  golden: "
                    << it->second << "\n  actual: " << value;
      ++mismatches;
    }
  }
  for (const auto& [key, value] : golden) {
    if (seen.count(key) == 0) {
      ADD_FAILURE() << "golden line without a plan: " << key;
      ++mismatches;
    }
  }
  if (mismatches > 0) WriteActual(actual);
}

}  // namespace
}  // namespace sqod
