// Interprocedural secret-taint analysis.
//
// The oracle is name- and type-based: the repo's own naming convention
// marks key material (config_key, id_key, puf_*, key_* ...), the
// Key64/WrappedKey types mark it structurally, and .bits()/.to_hex()
// accessors expose raw key words anywhere.
//
// On top of that single-expression view this pass computes per-function
// summaries over the cross-TU call graph:
//
//   param_to_sink[i]   param i reaches a sink inside the callee
//                      (directly or through deeper calls, to a depth);
//   param_to_return[i] param i appears in a return expression;
//   returns_tainted     some return expression is itself tainted.
//
// so one-hop laundering like log_debug(format_key(k)) is caught: the
// argument is tainted because format_key's return carries its secret
// param, and log_debug's param 0 reaches a printf sink.
#include <algorithm>
#include <cctype>
#include <map>
#include <set>
#include <string>

#include "analysis/analyses.h"
#include "analysis/lexer.h"

namespace analock::analysis {

namespace {

const char* const kOracleNameParts[] = {
    "secret",      "config_key", "user_key",  "id_key",  "wrapped_key",
    "chip_key",    "private_key", "true_key", "keypair", "puf_key",
    "key_bits",    "key_word",
};

// key_*/puf_* identifiers that are bookkeeping, not key material.
const char* const kBenignPrefixes[] = {
    "key_layout", "key_scheme", "key_manager", "key_slot",  "key_index",
    "key_count",  "key_size",   "key_space",   "key_name",  "key_len",
    "key_stream", "key_queries",
};

// Statistical parameters *about* key/PUF behaviour (flip probability,
// noise sigma) are publishable tuning knobs, not the material itself.
const char* const kBenignSuffixes[] = {
    "_prob", "_rate", "_sigma", "_stddev", "_noise", "_pct",
};

bool is_secret_type(std::string_view type) {
  return contains_word(type, "Key64") || contains_word(type, "WrappedKey");
}

struct Summary {
  std::vector<bool> param_to_sink;
  std::vector<std::string> sink_via;  ///< describes the path per param
  std::vector<bool> param_to_return;
  bool returns_tainted = false;
};

struct TaintContext {
  const CallGraph* graph = nullptr;
  std::map<const FunctionDef*, Summary> summaries;

  /// Secret-typed locals/params of a function, by name.
  std::set<std::string> secret_typed_names(const FunctionDef& fn) const {
    std::set<std::string> names;
    for (const Param& p : fn.params) {
      if (!p.name.empty() && is_secret_type(p.type)) names.insert(p.name);
    }
    for (const VarDecl& local : fn.locals) {
      if (is_secret_type(local.type)) names.insert(local.name);
    }
    return names;
  }
};

bool is_sink_call(const CallSite& call) {
  const std::string& base = call.base_name;
  if (base == "printf" || base == "fprintf" || base == "snprintf" ||
      base == "sprintf" || base == "puts" || base == "fputs") {
    return true;
  }
  if (base == "emit" && call.callee != base) return true;  // sink->emit(..)
  if (base == "event" || base == "count" || base == "set_gauge" ||
      base == "observe") {
    return call.callee.find("obs::") != std::string::npos;
  }
  return false;
}

/// Returns a non-empty witness when `expr` carries key material. The
/// context supplies function-local type knowledge and cross-TU
/// returns_tainted / param_to_return summaries.
std::string taint_witness(std::string_view expr, const FunctionDef& fn,
                          const TaintContext& ctx, int depth) {
  std::string witness;
  for_each_identifier(expr, [&](std::string_view ident) {
    if (is_secret_identifier(ident)) {
      witness = std::string(ident);
      return false;
    }
    return true;
  });
  if (!witness.empty()) return witness;

  if (has_secret_accessor(expr)) return "bits()/to_hex() accessor";

  // A secret-typed variable used whole as the expression.
  {
    std::string trimmed(expr);
    while (!trimmed.empty() &&
           std::isspace(static_cast<unsigned char>(trimmed.front())) != 0) {
      trimmed.erase(trimmed.begin());
    }
    while (!trimmed.empty() &&
           std::isspace(static_cast<unsigned char>(trimmed.back())) != 0) {
      trimmed.pop_back();
    }
    bool bare_ident = !trimmed.empty();
    for (const char c : trimmed) {
      if (!is_word_char(c)) {
        bare_ident = false;
        break;
      }
    }
    if (bare_ident) {
      const std::set<std::string> tainted_names = ctx.secret_typed_names(fn);
      if (tainted_names.count(trimmed) > 0) {
        return trimmed + " (secret-typed)";
      }
    }
  }

  if (depth <= 0) return {};

  // Calls inside the expression whose return value carries taint:
  // either the callee returns secret material outright, or a tainted
  // argument flows through param_to_return.
  for (const auto& [def, summary] : ctx.summaries) {
    const bool interesting =
        summary.returns_tainted ||
        std::find(summary.param_to_return.begin(),
                  summary.param_to_return.end(),
                  true) != summary.param_to_return.end();
    if (!interesting) continue;
    std::size_t pos = 0;
    while ((pos = expr.find(def->base_name, pos)) != std::string_view::npos) {
      const std::size_t end = pos + def->base_name.size();
      const bool left_ok = pos == 0 || !is_word_char(expr[pos - 1]);
      std::size_t k = end;
      while (k < expr.size() &&
             std::isspace(static_cast<unsigned char>(expr[k])) != 0) {
        ++k;
      }
      if (!left_ok || k >= expr.size() || expr[k] != '(') {
        pos = end;
        continue;
      }
      if (summary.returns_tainted) {
        return def->base_name + "() returns key material";
      }
      // Check tainted args against param_to_return.
      int nest = 0;
      std::size_t close = k;
      for (; close < expr.size(); ++close) {
        if (expr[close] == '(') ++nest;
        if (expr[close] == ')' && --nest == 0) break;
      }
      const std::string_view args_text =
          expr.substr(k + 1, close > k + 1 ? close - k - 1 : 0);
      const std::vector<std::string> args = split_top_level_args(args_text);
      for (std::size_t a = 0;
           a < args.size() && a < summary.param_to_return.size(); ++a) {
        if (!summary.param_to_return[a]) continue;
        const std::string inner =
            taint_witness(args[a], fn, ctx, depth - 1);
        if (!inner.empty()) {
          return inner + " via " + def->base_name + "()";
        }
      }
      pos = end;
    }
  }
  return {};
}

/// Statement-wise stream-insert scan of a function body (chained <<
/// across lines are seen whole). Returns (offset, statement) pairs.
std::vector<std::pair<std::size_t, std::string>> stream_insert_statements(
    const SourceFile& source, const FunctionDef& fn) {
  std::vector<std::pair<std::size_t, std::string>> out;
  const std::string_view body = std::string_view(source.stripped)
                                    .substr(fn.body_begin,
                                            fn.body_end - fn.body_begin);
  std::size_t start = 0;
  int depth = 0;
  for (std::size_t i = 0; i <= body.size(); ++i) {
    const char c = i < body.size() ? body[i] : ';';
    if (c == '(') ++depth;
    if (c == ')') depth = depth > 0 ? depth - 1 : 0;
    if ((c == ';' || c == '{' || c == '}') && depth == 0) {
      const std::string_view stmt = body.substr(start, i - start);
      if (stmt.find("<<") != std::string_view::npos) {
        const bool stream_target =
            contains_word(stmt, "cout") || contains_word(stmt, "cerr") ||
            contains_word(stmt, "clog") ||
            stmt.find("stream") != std::string_view::npos;
        if (stream_target) {
          out.emplace_back(fn.body_begin + start, std::string(stmt));
        }
      }
      start = i + 1;
    }
  }
  return out;
}

void compute_summaries(const std::vector<ParsedFile>& files,
                       const CallGraph& graph, int max_depth,
                       TaintContext& ctx) {
  // Initialize.
  for (const FunctionRef& ref : graph.all()) {
    const FunctionDef& fn = ref.def();
    Summary s;
    s.param_to_sink.assign(fn.params.size(), false);
    s.sink_via.assign(fn.params.size(), std::string());
    s.param_to_return.assign(fn.params.size(), false);
    for (std::size_t i = 0; i < fn.params.size(); ++i) {
      const std::string& name = fn.params[i].name;
      if (name.empty()) continue;
      for (const ReturnExpr& ret : fn.returns) {
        if (contains_word(ret.text, name)) {
          s.param_to_return[i] = true;
          break;
        }
      }
    }
    for (const ReturnExpr& ret : fn.returns) {
      // Base-level taint only here; call-based return taint composes
      // at use sites via param_to_return.
      std::string witness;
      for_each_identifier(ret.text, [&](std::string_view ident) {
        if (is_secret_identifier(ident)) {
          witness = std::string(ident);
          return false;
        }
        return true;
      });
      if (!witness.empty() || has_secret_accessor(ret.text)) {
        s.returns_tainted = true;
        break;
      }
      // Returning a secret-typed param or local whole.
      for (const Param& p : fn.params) {
        if (!p.name.empty() && is_secret_type(p.type) &&
            contains_word(ret.text, p.name)) {
          s.returns_tainted = true;
          break;
        }
      }
      for (const VarDecl& local : fn.locals) {
        if (is_secret_type(local.type) &&
            contains_word(ret.text, local.name)) {
          s.returns_tainted = true;
          break;
        }
      }
      if (s.returns_tainted) break;
    }
    ctx.summaries.emplace(&fn, std::move(s));
  }

  // Propagate param -> sink facts through call chains, one hop per
  // round, up to max_depth rounds.
  for (int round = 0; round < max_depth; ++round) {
    bool changed = false;
    for (const FunctionRef& ref : graph.all()) {
      const FunctionDef& fn = ref.def();
      Summary& s = ctx.summaries.at(&fn);
      for (std::size_t i = 0; i < fn.params.size(); ++i) {
        if (s.param_to_sink[i] || fn.params[i].name.empty()) continue;
        const std::string& pname = fn.params[i].name;
        for (const CallSite& call : fn.calls) {
          if (is_sink_call(call)) {
            for (const std::string& arg : call.args) {
              if (contains_word(arg, pname)) {
                s.param_to_sink[i] = true;
                s.sink_via[i] = call.callee;
                changed = true;
                break;
              }
            }
          } else {
            for (const FunctionRef& callee_ref : graph.resolve(call)) {
              const FunctionDef& callee = callee_ref.def();
              if (&callee == &fn) continue;
              const Summary& cs = ctx.summaries.at(&callee);
              for (std::size_t a = 0;
                   a < call.args.size() && a < cs.param_to_sink.size();
                   ++a) {
                if (cs.param_to_sink[a] &&
                    contains_word(call.args[a], pname)) {
                  s.param_to_sink[i] = true;
                  s.sink_via[i] =
                      callee.base_name + " -> " + cs.sink_via[a];
                  changed = true;
                  break;
                }
              }
              if (s.param_to_sink[i]) break;
            }
          }
          if (s.param_to_sink[i]) break;
        }
      }
      // Stream inserts count as sinks for parameters too.
      for (std::size_t i = 0; i < fn.params.size(); ++i) {
        if (s.param_to_sink[i] || fn.params[i].name.empty()) continue;
        for (const auto& [offset, stmt] :
             stream_insert_statements(*ref.file->source, fn)) {
          (void)offset;
          if (contains_word(stmt, fn.params[i].name)) {
            s.param_to_sink[i] = true;
            s.sink_via[i] = "operator<<";
            break;
          }
        }
      }
    }
    if (!changed && round > 0) break;
  }
  (void)files;
}

}  // namespace

bool has_secret_accessor(std::string_view text) {
  for (const std::string_view acc : {"bits", "to_hex"}) {
    std::size_t pos = 0;
    while ((pos = text.find(acc, pos)) != std::string_view::npos) {
      const std::size_t end = pos + acc.size();
      const bool deref =
          (pos >= 1 && text[pos - 1] == '.') ||
          (pos >= 2 && text[pos - 2] == '-' && text[pos - 1] == '>');
      std::size_t k = end;
      while (k < text.size() &&
             std::isspace(static_cast<unsigned char>(text[k])) != 0) {
        ++k;
      }
      if (deref && k < text.size() && text[k] == '(') return true;
      pos = end;
    }
  }
  return false;
}

bool is_secret_identifier(std::string_view identifier) {
  std::string lower;
  lower.reserve(identifier.size());
  for (const char c : identifier) {
    lower += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  for (const char* benign : kBenignPrefixes) {
    if (lower.rfind(benign, 0) == 0) return false;
  }
  for (const char* benign : kBenignSuffixes) {
    const std::string suffix(benign);
    if (lower.size() >= suffix.size() &&
        lower.compare(lower.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      return false;
    }
  }
  for (const char* marker : kOracleNameParts) {
    if (lower.find(marker) != std::string::npos) return true;
  }
  // puf_* / key_* prefixed identifiers carry material by convention.
  if (lower.rfind("puf_", 0) == 0 || lower.rfind("key_", 0) == 0) {
    return true;
  }
  return false;
}

void run_taint_analysis(const std::vector<ParsedFile>& files,
                        const CallGraph& graph, int max_depth,
                        std::vector<Finding>& out) {
  TaintContext ctx;
  ctx.graph = &graph;
  compute_summaries(files, graph, max_depth, ctx);

  for (const ParsedFile& file : files) {
    const SourceFile& source = *file.source;
    for (const FunctionDef& fn : file.functions) {
      for (const CallSite& call : fn.calls) {
        if (is_sink_call(call)) {
          for (const std::string& arg : call.args) {
            const std::string witness =
                taint_witness(arg, fn, ctx, max_depth);
            if (witness.empty()) continue;
            out.push_back(Finding::at(
                source, call.offset, "taint-sink",
                "key material (" + witness + ") reaches sink " +
                    call.callee +
                    "; secrets must not enter obs/log output"));
            break;
          }
          continue;
        }
        // Non-sink call: tainted argument into a param that reaches a
        // sink inside the callee (interprocedural laundering).
        for (const FunctionRef& callee_ref : graph.resolve(call)) {
          const FunctionDef& callee = callee_ref.def();
          if (&callee == &fn) continue;
          const Summary& cs = ctx.summaries.at(&callee);
          bool reported = false;
          for (std::size_t a = 0;
               a < call.args.size() && a < cs.param_to_sink.size(); ++a) {
            if (!cs.param_to_sink[a]) continue;
            const std::string witness =
                taint_witness(call.args[a], fn, ctx, max_depth);
            if (witness.empty()) continue;
            out.push_back(Finding::at(
                source, call.offset, "taint-call",
                "key material (" + witness +
                    ") flows into a sink through call chain " +
                    call.base_name + " -> " + cs.sink_via[a]));
            reported = true;
            break;
          }
          if (reported) break;
        }
      }
      // Direct stream inserts of tainted expressions.
      for (const auto& [offset, stmt] : stream_insert_statements(source, fn)) {
        const std::string witness = taint_witness(stmt, fn, ctx, max_depth);
        if (witness.empty()) continue;
        // Anchor at the first non-space char of the statement.
        std::size_t lead = 0;
        while (lead < stmt.size() &&
               std::isspace(static_cast<unsigned char>(stmt[lead])) != 0) {
          ++lead;
        }
        out.push_back(Finding::at(
            source, offset + lead, "taint-sink",
            "key material (" + witness +
                ") inserted into an output stream; secrets must not "
                "enter obs/log output"));
      }
    }
  }
}

}  // namespace analock::analysis
