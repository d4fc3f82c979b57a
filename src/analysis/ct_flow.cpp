// Constant-time flow analysis.
//
// The taint pass stops key material leaking through *data* channels
// (logs, metrics, streams). This pass closes the *timing* channel: a
// secret-dependent branch, a secret table index, a division whose
// latency depends on its operands, or an early loop exit all modulate
// execution time with key bits, which a remote attacker can sample at
// activation-protocol scale.
//
// Rules:
//
//   secret-branch   if/while/ternary/switch conditions (and short-
//                   circuit &&/|| in return expressions) tainted by
//                   key/PUF material, directly or through a call whose
//                   parameter reaches a branch inside the callee.
//   secret-index    subscripts and pointer arithmetic on secrets
//                   (data-dependent memory access pattern).
//   vartime-op      '/' or '%' on secret operands, secret-bounded loop
//                   trip counts, and early return/break inside a loop
//                   over key material.
//   ct-leak-call    secrets passed to known variable-time callees
//                   (memcmp/strcmp/std::find/map lookups).
//   secret-compare  early-exit '==' / '!=' with a secret operand outside
//                   a condition secret-branch already reports (one
//                   hazard, one finding). Call arguments do not make an
//                   operand secret: a secret handed to memcmp is
//                   ct-leak-call's site, and a callee's result is judged
//                   by its summary.
//
// The secret oracle is the shared name convention (is_secret_identifier)
// plus the .bits()/.to_hex() accessors; taint is deliberately nominal,
// NOT type-based, so evaluator/attack code sweeping public *candidate*
// keys (Key64-typed but benign-named) stays quiet. This pass seeds the
// shared secret-flow fixed point (secret_flow.h) with three facts per
// parameter (reaches a branch, a subscript, a variable-time op) and
// its own returns-secret base; SecretFlow composes them over the
// cross-TU call graph.
//
// Escape hatches, both auditable in review:
//
//   // analock: ct_safe              on a function definition vouches it
//                                    is constant-time: its body is
//                                    exempt and calls into it never leak
//                                    (analock::ct_equal is blessed
//                                    implicitly as the sanctioned
//                                    comparator).
//   // analock: declassified(reason) on a line marks the values released
//                                    there as deliberately public (e.g.
//                                    SNR results derived from locked
//                                    behaviour); the reason must be
//                                    non-empty or the annotation is
//                                    ignored.
//
// Length and presence are public by policy — `x.size()`, `x.empty()`,
// `x.has_value()` chains are stripped before tainting, mirroring
// ct_equal's own early length check.
#include <algorithm>
#include <cctype>
#include <set>
#include <string>

#include "analysis/analyses.h"
#include "analysis/lexer.h"
#include "analysis/secret_flow.h"

namespace analock::analysis {

namespace {

/// Where a parameter can flow inside a callee chain, and the rule and
/// wording a call site passing key material there is reported with.
enum Fact { kBranch, kIndex, kVartime, kFactCount };
constexpr struct {
  const char* rule;
  const char* reaches;
} kFactSinks[kFactCount] = {
    {"secret-branch", "a branch"},
    {"secret-index", "a subscript"},
    {"vartime-op", "a variable-time op"},
};

/// Walks a postfix chain backwards from `pos` (exclusive) over
/// identifier characters, member links, and balanced ()/[] groups.
/// Returns the chain's start index.
std::size_t chain_start(std::string_view text, std::size_t pos) {
  std::size_t p = pos;
  while (p > 0) {
    const char c = text[p - 1];
    if (is_word_char(c)) {
      --p;
      continue;
    }
    if (c == ')' || c == ']') {
      const char open = c == ')' ? '(' : '[';
      int d = 0;
      std::size_t k = p;
      bool balanced = false;
      while (k > 0) {
        --k;
        if (text[k] == c) ++d;
        if (text[k] == open && --d == 0) {
          balanced = true;
          break;
        }
      }
      if (!balanced) break;
      p = k;
      continue;
    }
    if (c == '.') {
      --p;
      continue;
    }
    if (p >= 2 && ((c == '>' && text[p - 2] == '-') ||
                   (c == ':' && text[p - 2] == ':'))) {
      p -= 2;
      continue;
    }
    break;
  }
  return p;
}

/// Blanks blessed constant-time calls (`ct_equal(...)` and ct_safe
/// functions) and public-shape accessor chains (`x.size()`,
/// `x.has_value()`, ...) so their operands don't register as taint: the
/// comparator's boolean result and container lengths/presence are
/// sanctioned releases.
std::string strip_sanctioned(
    std::string_view expr, const std::set<std::string, std::less<>>& blessed) {
  std::string text(expr);
  const auto blank_range = [&text](std::size_t from, std::size_t to) {
    for (std::size_t k = from; k < to && k < text.size(); ++k) {
      text[k] = ' ';
    }
  };
  const auto blank_call_at = [&](std::size_t name_pos,
                                 std::size_t name_end) {
    const std::size_t k = skip_space(text, name_end);
    if (k >= text.size() || text[k] != '(') return false;
    int d = 0;
    std::size_t close = k;
    for (; close < text.size(); ++close) {
      if (text[close] == '(') ++d;
      if (text[close] == ')' && --d == 0) break;
    }
    if (close >= text.size()) return false;
    blank_range(chain_start(text, name_pos), close + 1);
    return true;
  };

  for (const std::string& name : blessed) {
    std::size_t pos = 0;
    while ((pos = text.find(name, pos)) != std::string::npos) {
      const std::size_t end = pos + name.size();
      if (!whole_word_at(text, pos, name.size()) ||
          !blank_call_at(pos, end)) {
        pos = end;
      }
      // On success the region was blanked; rescans find nothing there.
    }
  }

  for (const std::string_view acc :
       {"size", "empty", "has_value", "length", "capacity"}) {
    std::size_t pos = 0;
    while ((pos = text.find(acc, pos)) != std::string::npos) {
      const std::size_t end = pos + acc.size();
      const bool member = (pos >= 1 && text[pos - 1] == '.') ||
                          (pos >= 2 && text[pos - 2] == '-' &&
                           text[pos - 1] == '>');
      // Empty argument list only: `.count(key)` stays a lookup.
      const std::size_t k = skip_space(text, end);
      const std::size_t close =
          k < text.size() && text[k] == '(' ? skip_space(text, k + 1) : k;
      if (member && close < text.size() && text[close] == ')') {
        blank_range(chain_start(text, pos), close + 1);
      }
      pos = end;
    }
  }
  return text;
}

/// Non-empty witness when `expr`, stripped of sanctioned
/// subexpressions, carries key material: a secret-named identifier, a
/// raw-word accessor, or a call whose summary says it returns secrets.
std::string ct_witness(std::string_view expr, const Releases& releases,
                       const SecretFlow& flow) {
  const std::string text = strip_sanctioned(expr, releases.blessed);
  std::string witness = first_secret_name(text);
  if (!witness.empty()) return witness;
  if (has_secret_accessor(text)) return "bits()/to_hex() accessor";
  any_callee(flow.graph(), text, [&](const FunctionRef& callee, std::size_t) {
    if (!flow[callee].returns_tainted) return false;
    witness = callee.def().base_name + "() returns key material";
    return true;
  });
  return witness;
}

const char* condition_kind_name(ConditionSite::Kind kind) {
  switch (kind) {
    case ConditionSite::Kind::kIf:
      return "if";
    case ConditionSite::Kind::kWhile:
      return "while";
    case ConditionSite::Kind::kDoWhile:
      return "do-while";
    case ConditionSite::Kind::kSwitch:
      return "switch";
    case ConditionSite::Kind::kTernary:
      return "ternary";
  }
  return "branch";
}

struct BranchText {
  std::string text;
  std::size_t offset = 0;
  const char* kind = "if";
  std::size_t begin = 0;  ///< where `text` sits in the file; an empty
  std::size_t end = 0;    ///< range when a preprocessor line hides it
};

/// Explicit conditions plus short-circuit &&/|| return expressions
/// (evaluation order makes those branches too).
std::vector<BranchText> branch_texts(const FunctionDef& fn,
                                     const SourceFile& source) {
  const std::string_view code = source.stripped;
  std::vector<BranchText> out;
  out.reserve(fn.conditions.size() + fn.returns.size());
  // A condition follows its keyword; a ternary's precedes its '?'.
  const auto add = [&](const std::string& text, std::size_t offset,
                       const char* kind, bool before_offset) {
    BranchText& b = out.emplace_back(BranchText{text, offset, kind});
    const std::size_t at =
        before_offset ? code.rfind(text, offset) : code.find(text, offset);
    if (at != std::string_view::npos) {
      b.begin = at;
      b.end = at + text.size();
    }
  };
  for (const ConditionSite& cond : fn.conditions) {
    add(cond.text, cond.offset, condition_kind_name(cond.kind),
        cond.kind == ConditionSite::Kind::kTernary);
  }
  for (const ReturnExpr& ret : fn.returns) {
    if (ret.text.find("&&") != std::string::npos ||
        ret.text.find("||") != std::string::npos) {
      add(ret.text, ret.offset, "short-circuit return", false);
    }
  }
  return out;
}

bool is_compare(const BinaryOpSite& site) {
  return site.op == "==" || site.op == "!=";
}

/// Blanks the argument lists of calls in `expr`, keeping the callee
/// name and parentheses so accessor and summary witnesses still match.
/// A cast's `>(` is not a call: its operand is the value compared.
std::string blank_call_args(std::string_view expr) {
  std::string text(expr);
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] != '(') continue;
    std::size_t k = i;
    while (k > 0 &&
           std::isspace(static_cast<unsigned char>(text[k - 1])) != 0) {
      --k;
    }
    if (k == 0 || !is_word_char(text[k - 1])) continue;  // not a call
    int depth = 0;
    std::size_t close = i;
    for (; close < text.size(); ++close) {
      if (text[close] == '(') ++depth;
      if (text[close] == ')' && --depth == 0) break;
    }
    for (std::size_t j = i + 1; j < close && j < text.size(); ++j) {
      text[j] = ' ';
    }
    i = close;
  }
  return text;
}

/// Known variable-time library callees. Member/qualified lookups
/// (map.find, std::find) compare element-by-element; the C comparators
/// bail at the first differing byte.
bool is_vartime_callee(const CallSite& call) {
  static const std::set<std::string_view> kFreeFns = {
      "memcmp", "strcmp", "strncmp", "strcasecmp", "bcmp",
      "strstr", "strchr",
  };
  static const std::set<std::string_view> kLookups = {
      "find",        "count",       "at",          "lower_bound",
      "upper_bound", "equal_range", "binary_search", "contains",
      "search",
  };
  if (kFreeFns.count(call.base_name) > 0) return true;
  // Lookups need a receiver or std:: qualifier so a local helper named
  // `find` is not mistaken for a container probe.
  return kLookups.count(call.base_name) > 0 && call.callee != call.base_name;
}

/// The branch/index/vartime facts and the returns-secret base of one
/// function. A ct_safe function's parameters reach nothing by
/// assertion; declassified sites and returns are deliberate releases.
SecretSummary seed(const CallGraph& graph, const FunctionRef& ref,
                   const Releases& releases) {
  const FunctionDef& fn = ref.def();
  const SourceFile& source = *ref.file->source;
  SecretSummary s(kFactCount, fn.params.size());
  std::vector<std::pair<Fact, std::string>> sites;  ///< stripped texts
  const auto site = [&](Fact f, std::size_t offset, std::string_view text) {
    if (releases.is_declassified(source, offset)) return;
    sites.emplace_back(f, strip_sanctioned(text, releases.blessed));
  };
  if (!fn.is_ct_safe) {
    for (const BranchText& b : branch_texts(fn, source)) {
      site(kBranch, b.offset, b.text);
    }
    for (const SubscriptSite& sub : fn.subscripts) {
      site(kIndex, sub.offset, sub.index_text);
    }
    for (const BinaryOpSite& dm : fn.binary_ops) {
      if (is_compare(dm)) continue;
      site(kVartime, dm.offset, dm.lhs);
      site(kVartime, dm.offset, dm.rhs);
    }
    for (const LoopSite& loop : fn.loops) {
      site(kVartime, loop.offset, loop.bound_text);
    }
  }
  for (std::size_t i = 0; i < fn.params.size(); ++i) {
    const std::string& name = fn.params[i].name;
    if (name.empty()) continue;
    for (const auto& [f, text] : sites) {
      if (!s.reaches(f, i) && contains_word(text, name)) {
        s.mark(f, i, fn.base_name);
      }
    }
  }
  for (const ReturnExpr& ret : fn.returns) {
    if (releases.is_declassified(source, ret.offset)) continue;
    const std::string stripped = strip_sanctioned(ret.text, releases.blessed);
    s.returns_tainted = s.returns_tainted || has_secret_accessor(stripped) ||
                       !first_secret_name(stripped).empty();
    s.add_return(graph, stripped);
  }
  return s;
}

void report(const std::vector<ParsedFile>& files, const Releases& releases,
            const SecretFlow& flow, std::vector<Finding>& out) {
  const auto witness_of = [&](std::string_view expr) {
    return ct_witness(expr, releases, flow);
  };
  for (const ParsedFile& file : files) {
    const SourceFile& source = *file.source;
    for (const FunctionDef& fn : file.functions) {
      if (fn.is_ct_safe) continue;

      const auto add = [&](std::size_t offset, const char* rule,
                           std::string message) {
        if (releases.is_declassified(source, offset)) return;
        out.push_back(Finding::at(source, offset, rule, std::move(message)));
      };

      std::vector<BranchText> reported_branches;
      for (BranchText& b : branch_texts(fn, source)) {
        const std::string witness = witness_of(b.text);
        if (witness.empty()) continue;
        add(b.offset, "secret-branch",
            std::string("key material (") + witness + ") decides a " +
                b.kind +
                " condition; timing reveals the secret — restructure "
                "branch-free (ct_equal / masked select) or annotate "
                "'// analock: declassified(reason)'");
        reported_branches.push_back(std::move(b));
      }

      for (const BinaryOpSite& cmp : fn.binary_ops) {
        if (!is_compare(cmp)) continue;
        const bool in_reported_branch = std::any_of(
            reported_branches.begin(), reported_branches.end(),
            [&cmp](const BranchText& b) {
              return cmp.offset >= b.begin && cmp.offset < b.end;
            });
        if (in_reported_branch) continue;
        const std::string witness = witness_of(
            blank_call_args(cmp.lhs) + " " + blank_call_args(cmp.rhs));
        if (witness.empty()) continue;
        add(cmp.offset, "secret-compare",
            "early-exit " + cmp.op + " on key material (" + witness +
                "); use analock::ct_equal (lock/ct_equal.h)");
      }

      for (const SubscriptSite& sub : fn.subscripts) {
        const std::string witness = witness_of(sub.index_text);
        if (witness.empty()) continue;
        add(sub.offset, "secret-index",
            std::string("key material (") + witness +
                ") used as a subscript; the memory access pattern leaks "
                "the key through cache timing");
      }
      // Pointer arithmetic on secrets: a pointer-typed local whose
      // initializer offsets by key material.
      for (const VarDecl& local : fn.locals) {
        if (local.type.find('*') == std::string::npos) continue;
        if (local.init.empty()) continue;
        if (local.init.find('+') == std::string::npos &&
            local.init.find('-') == std::string::npos) {
          continue;
        }
        const std::string witness = witness_of(local.init);
        if (witness.empty()) continue;
        add(local.offset, "secret-index",
            std::string("key material (") + witness +
                ") used as a pointer offset; the memory access pattern "
                "leaks the key through cache timing");
      }

      for (const BinaryOpSite& dm : fn.binary_ops) {
        if (is_compare(dm)) continue;
        const std::string witness = witness_of(dm.lhs + " " + dm.rhs);
        if (witness.empty()) continue;
        add(dm.offset, "vartime-op",
            std::string("variable-time division/modulo on key material "
                        "(") +
                witness + "); hardware divide latency is operand-"
                "dependent — use branch-free arithmetic");
      }
      for (const LoopSite& loop : fn.loops) {
        const std::string witness = witness_of(loop.bound_text);
        if (witness.empty()) continue;
        add(loop.offset, "vartime-op",
            std::string("loop trip count bounded by key material (") +
                witness + "); iteration count is observable timing");
        const auto early_exit = [&](std::size_t at, const char* kind) {
          if (at <= loop.body_begin || at >= loop.body_end) return;
          add(at, "vartime-op",
              std::string("early ") + kind +
                  " inside a loop over key material (" + witness +
                  "); exit position reveals how far the secret matched");
        };
        for (const ReturnExpr& ret : fn.returns) {
          early_exit(ret.offset, "return");
        }
        for (const std::size_t brk : fn.break_offsets) {
          early_exit(brk, "break");
        }
      }

      for (const CallSite& call : fn.calls) {
        if (releases.blessed.count(call.base_name) > 0) continue;
        if (is_vartime_callee(call)) {
          std::string probe = call.callee;
          for (const std::string& arg : call.args) {
            probe += ' ';
            probe += arg;
          }
          const std::string witness = witness_of(probe);
          if (!witness.empty()) {
            add(call.offset, "ct-leak-call",
                std::string("key material (") + witness +
                    ") passed to variable-time callee " + call.callee +
                    "; use analock::ct_equal or a fixed-shape scan");
          }
          continue;
        }
        // Interprocedural: a tainted argument into a parameter that
        // reaches a branch/index/vartime op inside the callee chain.
        if (is_opaque_member_call(call)) continue;
        flow.report_call(
            call, fn, witness_of,
            [&](const SecretSummary& callee, std::size_t a,
                const std::string& witness) {
              for (int f = 0; f < kFactCount; ++f) {
                if (!callee.reaches(f, a)) continue;
                add(call.offset, kFactSinks[f].rule,
                    "key material (" + witness + ") reaches " +
                        kFactSinks[f].reaches + " through call chain " +
                        callee.chain(f, a));
              }
            });
      }
    }
  }
}

}  // namespace

void run_ct_flow_analysis(const std::vector<ParsedFile>& files,
                          const CallGraph& graph, int max_depth,
                          std::vector<Finding>& out) {
  const Releases releases{blessed_callees(graph), declassified_lines(files)};
  std::vector<SecretSummary> seeds;
  seeds.reserve(graph.all().size());
  for (const FunctionRef& ref : graph.all()) {
    seeds.push_back(seed(graph, ref, releases));
  }
  const SecretFlow flow(graph, std::move(seeds), releases, max_depth);
  report(files, releases, flow, out);
}

}  // namespace analock::analysis
