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
// keys (Key64-typed but benign-named) stays quiet. Per-function
// summaries (returns-secret, param-flows-to-branch/index/vartime) are
// computed over the cross-TU call graph to a fixed point.
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
#include <array>
#include <cctype>
#include <map>
#include <set>
#include <string>

#include "analysis/analyses.h"
#include "analysis/lexer.h"

namespace analock::analysis {

namespace {

/// True for member-call names that collide with the std:: vocabulary
/// (atomic load/store, smart-pointer get, optional value, ...). Such
/// calls are opaque to cross-TU name resolution: `enabled_.load()` must
/// not resolve to a repo function that happens to be called `load`.
bool is_std_vocab_name(std::string_view base_name) {
  static const std::set<std::string_view> kStdNames = {
      "load", "store", "exchange", "get", "value",
      "reset", "swap", "data", "read",
  };
  return kStdNames.count(base_name) > 0;
}

bool is_opaque_member_call(const CallSite& call) {
  return call.callee != call.base_name && is_std_vocab_name(call.base_name);
}

/// First secret-named identifier in `expr` that is used as *data*. An
/// identifier immediately followed by '(' is a callee: its secrecy is
/// judged by its summary, because a function merely *named*
/// install_wrapped_key is not itself key material.
std::string first_secret_name(std::string_view expr) {
  std::size_t i = 0;
  const std::size_t n = expr.size();
  while (i < n) {
    const char c = expr[i];
    if (std::isalpha(static_cast<unsigned char>(c)) == 0 && c != '_') {
      ++i;
      continue;
    }
    std::size_t j = i + 1;
    while (j < n && is_word_char(expr[j])) ++j;
    std::size_t k = j;
    while (k < n && std::isspace(static_cast<unsigned char>(expr[k])) != 0) {
      ++k;
    }
    const bool is_callee = k < n && expr[k] == '(';
    if (!is_callee && is_secret_identifier(expr.substr(i, j - i))) {
      return std::string(expr.substr(i, j - i));
    }
    i = j;
  }
  return {};
}

/// Per-function constant-time summary, fixed-pointed over the call
/// graph. A ct_safe function's summary is all-clear by assertion.
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

struct CtSummary {
  std::array<std::vector<char>, kFactCount> to;  ///< [fact][param]
  std::array<std::vector<std::string>, kFactCount> via;  ///< call chain
  bool returns_tainted = false;
};

struct CtContext {
  const CallGraph* graph = nullptr;
  std::map<const FunctionDef*, CtSummary> summaries;
  std::set<std::string> blessed;  ///< ct_safe base names + ct_equal
  /// Lines (and the line below each) carrying a non-empty
  /// `// analock: declassified(reason)`.
  std::map<const SourceFile*, std::set<int>> declassified;

  bool is_declassified(const SourceFile& source, std::size_t offset) const {
    const auto it = declassified.find(&source);
    if (it == declassified.end()) return false;
    return it->second.count(source.line_of(offset)) > 0;
  }
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
std::string strip_sanctioned(std::string_view expr, const CtContext& ctx) {
  std::string text(expr);
  const auto blank_range = [&text](std::size_t from, std::size_t to) {
    for (std::size_t k = from; k < to && k < text.size(); ++k) {
      text[k] = ' ';
    }
  };
  const auto blank_call_at = [&](std::size_t name_pos,
                                 std::size_t name_end) {
    std::size_t k = name_end;
    while (k < text.size() &&
           std::isspace(static_cast<unsigned char>(text[k])) != 0) {
      ++k;
    }
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

  for (const std::string& name : ctx.blessed) {
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
      std::size_t k = end;
      while (k < text.size() &&
             std::isspace(static_cast<unsigned char>(text[k])) != 0) {
        ++k;
      }
      // Empty argument list only: `.count(key)` stays a lookup.
      std::size_t close = k;
      if (k < text.size() && text[k] == '(') {
        close = k + 1;
        while (close < text.size() &&
               std::isspace(static_cast<unsigned char>(text[close])) != 0) {
          ++close;
        }
      }
      if (member && close < text.size() && text[close] == ')') {
        blank_range(chain_start(text, pos), close + 1);
      }
      pos = end;
    }
  }
  return text;
}

/// Non-empty witness when `expr` (already stripped of sanctioned
/// subexpressions) carries key material: a secret-named identifier, a
/// raw-word accessor, or a call whose summary says it returns secrets.
std::string ct_witness_stripped(std::string_view expr,
                                const CtContext& ctx) {
  const std::string named = first_secret_name(expr);
  if (!named.empty()) return named;
  if (has_secret_accessor(expr)) return "bits()/to_hex() accessor";
  // Only a call can return key material.
  if (expr.find('(') == std::string_view::npos) return {};

  for (const auto& [def, summary] : ctx.summaries) {
    if (!summary.returns_tainted) continue;
    std::size_t pos = 0;
    while ((pos = expr.find(def->base_name, pos)) !=
           std::string_view::npos) {
      const std::size_t end = pos + def->base_name.size();
      const bool left_ok = pos == 0 || !is_word_char(expr[pos - 1]);
      const bool member =
          (pos >= 1 && expr[pos - 1] == '.') ||
          (pos >= 2 && expr[pos - 2] == '-' && expr[pos - 1] == '>');
      std::size_t k = end;
      while (k < expr.size() &&
             std::isspace(static_cast<unsigned char>(expr[k])) != 0) {
        ++k;
      }
      if (left_ok && k < expr.size() && expr[k] == '(' &&
          !(member && is_std_vocab_name(def->base_name))) {
        return def->base_name + "() returns key material";
      }
      pos = end;
    }
  }
  return {};
}

std::string ct_witness(std::string_view expr, const CtContext& ctx) {
  return ct_witness_stripped(strip_sanctioned(expr, ctx), ctx);
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

void collect_declassified(const std::vector<ParsedFile>& files,
                          CtContext& ctx) {
  for (const ParsedFile& file : files) {
    const SourceFile& source = *file.source;
    std::set<int>& lines = ctx.declassified[&source];
    const int line_count = static_cast<int>(source.line_starts.size());
    for (int line = 1; line <= line_count; ++line) {
      const std::string_view text = source.line_text(line);
      const std::size_t tag = text.find("analock:");
      if (tag == std::string_view::npos) continue;
      const std::size_t ann = text.find("declassified(", tag);
      if (ann == std::string_view::npos) continue;
      const std::size_t open = ann + 13;
      const std::size_t close = text.find(')', open);
      if (close == std::string_view::npos) continue;
      // An empty reason is not an audit trail: the annotation is
      // ignored so the finding still surfaces.
      bool has_reason = false;
      for (std::size_t k = open; k < close; ++k) {
        if (std::isspace(static_cast<unsigned char>(text[k])) == 0) {
          has_reason = true;
          break;
        }
      }
      if (!has_reason) continue;
      lines.insert(line);
      lines.insert(line + 1);
    }
  }
}

void compute_summaries(const CallGraph& graph, int max_depth,
                       CtContext& ctx) {
  // Blessed names first: witnesses during initialization already need
  // the full set.
  ctx.blessed.insert("ct_equal");
  for (const FunctionRef& ref : graph.all()) {
    if (ref.def().is_ct_safe) ctx.blessed.insert(ref.def().base_name);
  }

  // Direct facts.
  for (const FunctionRef& ref : graph.all()) {
    const FunctionDef& fn = ref.def();
    const SourceFile& source = *ref.file->source;
    CtSummary s;
    for (int f = 0; f < kFactCount; ++f) {
      s.to[f].assign(fn.params.size(), 0);
      s.via[f].assign(fn.params.size(), std::string());
    }
    const auto mark = [&s, &fn](Fact f, std::size_t i) {
      s.to[f][i] = 1;
      s.via[f][i] = fn.base_name;
    };
    if (!fn.is_ct_safe) {
      const std::vector<BranchText> branches = branch_texts(fn, source);
      for (std::size_t i = 0; i < fn.params.size(); ++i) {
        const std::string& name = fn.params[i].name;
        if (name.empty()) continue;
        for (const BranchText& b : branches) {
          if (ctx.is_declassified(source, b.offset)) continue;
          if (contains_word(strip_sanctioned(b.text, ctx), name)) {
            mark(kBranch, i);
            break;
          }
        }
        for (const SubscriptSite& sub : fn.subscripts) {
          if (ctx.is_declassified(source, sub.offset)) continue;
          if (contains_word(strip_sanctioned(sub.index_text, ctx), name)) {
            mark(kIndex, i);
            break;
          }
        }
        for (const BinaryOpSite& dm : fn.binary_ops) {
          if (is_compare(dm)) continue;
          if (ctx.is_declassified(source, dm.offset)) continue;
          if (contains_word(strip_sanctioned(dm.lhs, ctx), name) ||
              contains_word(strip_sanctioned(dm.rhs, ctx), name)) {
            mark(kVartime, i);
            break;
          }
        }
        if (s.to[kVartime][i] == 0) {
          for (const LoopSite& loop : fn.loops) {
            if (ctx.is_declassified(source, loop.offset)) continue;
            if (contains_word(strip_sanctioned(loop.bound_text, ctx),
                              name)) {
              mark(kVartime, i);
              break;
            }
          }
        }
      }
    }
    // Base returns-secret: oracle names and raw accessors in a return
    // expression (declassified returns are deliberate releases).
    for (const ReturnExpr& ret : fn.returns) {
      if (ctx.is_declassified(source, ret.offset)) continue;
      const std::string stripped = strip_sanctioned(ret.text, ctx);
      if (has_secret_accessor(stripped) ||
          !first_secret_name(stripped).empty()) {
        s.returns_tainted = true;
        break;
      }
    }
    ctx.summaries.emplace(&fn, std::move(s));
  }

  // Fixed point: compose returns-secret through return-expression call
  // chains, and param flows through argument passing. Monotone boolean
  // facts, so the loop terminates; max_depth bounds the rounds as a
  // safety valve against resolver ambiguity blowups.
  const int rounds = std::max(max_depth, 8);
  for (int round = 0; round < rounds; ++round) {
    bool changed = false;
    for (const FunctionRef& ref : graph.all()) {
      const FunctionDef& fn = ref.def();
      const SourceFile& source = *ref.file->source;
      CtSummary& s = ctx.summaries.at(&fn);

      if (!s.returns_tainted) {
        for (const ReturnExpr& ret : fn.returns) {
          if (ctx.is_declassified(source, ret.offset)) continue;
          const std::string stripped = strip_sanctioned(ret.text, ctx);
          if (!ct_witness_stripped(stripped, ctx).empty()) {
            s.returns_tainted = true;
            changed = true;
            break;
          }
        }
      }

      if (fn.is_ct_safe) continue;
      for (const CallSite& call : fn.calls) {
        if (ctx.blessed.count(call.base_name) > 0) continue;
        if (is_opaque_member_call(call)) continue;
        if (ctx.is_declassified(source, call.offset)) continue;
        for (const FunctionRef& callee_ref : ctx.graph->resolve(call)) {
          const FunctionDef& callee = callee_ref.def();
          if (&callee == &fn) continue;
          const CtSummary& cs = ctx.summaries.at(&callee);
          for (std::size_t i = 0; i < fn.params.size(); ++i) {
            const std::string& pname = fn.params[i].name;
            if (pname.empty()) continue;
            for (std::size_t a = 0;
                 a < call.args.size() && a < cs.to[kBranch].size(); ++a) {
              if (!contains_word(call.args[a], pname)) continue;
              for (int f = 0; f < kFactCount; ++f) {
                if (cs.to[f][a] == 0 || s.to[f][i] != 0) continue;
                s.to[f][i] = 1;
                s.via[f][i] = callee.base_name + " -> " + cs.via[f][a];
                changed = true;
              }
            }
          }
        }
      }
    }
    if (!changed) break;
  }
}

void report(const std::vector<ParsedFile>& files, const CtContext& ctx,
            std::vector<Finding>& out) {
  for (const ParsedFile& file : files) {
    const SourceFile& source = *file.source;
    for (const FunctionDef& fn : file.functions) {
      if (fn.is_ct_safe) continue;

      const auto add = [&](std::size_t offset, const char* rule,
                           std::string message) {
        if (ctx.is_declassified(source, offset)) return;
        out.push_back(Finding::at(source, offset, rule, std::move(message)));
      };

      std::vector<BranchText> reported_branches;
      for (BranchText& b : branch_texts(fn, source)) {
        const std::string witness = ct_witness(b.text, ctx);
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
        const std::string witness = ct_witness(
            blank_call_args(cmp.lhs) + " " + blank_call_args(cmp.rhs), ctx);
        if (witness.empty()) continue;
        add(cmp.offset, "secret-compare",
            "early-exit " + cmp.op + " on key material (" + witness +
                "); use analock::ct_equal (lock/ct_equal.h)");
      }

      for (const SubscriptSite& sub : fn.subscripts) {
        const std::string witness = ct_witness(sub.index_text, ctx);
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
        const std::string witness = ct_witness(local.init, ctx);
        if (witness.empty()) continue;
        add(local.offset, "secret-index",
            std::string("key material (") + witness +
                ") used as a pointer offset; the memory access pattern "
                "leaks the key through cache timing");
      }

      for (const BinaryOpSite& dm : fn.binary_ops) {
        if (is_compare(dm)) continue;
        const std::string witness =
            ct_witness(dm.lhs + " " + dm.rhs, ctx);
        if (witness.empty()) continue;
        add(dm.offset, "vartime-op",
            std::string("variable-time division/modulo on key material "
                        "(") +
                witness + "); hardware divide latency is operand-"
                "dependent — use branch-free arithmetic");
      }
      for (const LoopSite& loop : fn.loops) {
        const std::string witness = ct_witness(loop.bound_text, ctx);
        if (witness.empty()) continue;
        add(loop.offset, "vartime-op",
            std::string("loop trip count bounded by key material (") +
                witness + "); iteration count is observable timing");
        for (const ReturnExpr& ret : fn.returns) {
          if (ret.offset > loop.body_begin && ret.offset < loop.body_end) {
            add(ret.offset, "vartime-op",
                std::string("early return inside a loop over key "
                            "material (") +
                    witness +
                    "); exit position reveals how far the secret "
                    "matched");
          }
        }
        for (const std::size_t brk : fn.break_offsets) {
          if (brk > loop.body_begin && brk < loop.body_end) {
            add(brk, "vartime-op",
                std::string("early break inside a loop over key "
                            "material (") +
                    witness +
                    "); exit position reveals how far the secret "
                    "matched");
          }
        }
      }

      for (const CallSite& call : fn.calls) {
        if (ctx.blessed.count(call.base_name) > 0) continue;
        if (is_vartime_callee(call)) {
          std::string probe = call.callee;
          for (const std::string& arg : call.args) {
            probe += ' ';
            probe += arg;
          }
          const std::string witness = ct_witness(probe, ctx);
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
        for (const FunctionRef& callee_ref : ctx.graph->resolve(call)) {
          const FunctionDef& callee = callee_ref.def();
          if (&callee == &fn) continue;
          const CtSummary& cs = ctx.summaries.at(&callee);
          bool reported = false;
          for (std::size_t a = 0;
               a < call.args.size() && a < cs.to[kBranch].size(); ++a) {
            const std::string witness = ct_witness(call.args[a], ctx);
            if (witness.empty()) continue;
            for (int f = 0; f < kFactCount; ++f) {
              if (cs.to[f][a] == 0) continue;
              add(call.offset, kFactSinks[f].rule,
                  "key material (" + witness + ") reaches " +
                      kFactSinks[f].reaches + " through call chain " +
                      cs.via[f][a]);
              reported = true;
            }
            if (reported) break;
          }
          if (reported) break;
        }
      }
    }
  }
}

}  // namespace

void run_ct_flow_analysis(const std::vector<ParsedFile>& files,
                          const CallGraph& graph, int max_depth,
                          std::vector<Finding>& out) {
  CtContext ctx;
  ctx.graph = &graph;
  collect_declassified(files, ctx);
  compute_summaries(graph, max_depth, ctx);
  report(files, ctx, out);
}

}  // namespace analock::analysis
