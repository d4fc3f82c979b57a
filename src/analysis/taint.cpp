// Interprocedural secret-taint analysis: key material reaching data
// channels (obs events/metrics, printf-family calls, `.emit()` sinks,
// stream inserts).
//
// This pass seeds the shared secret-flow fixed point (secret_flow.h)
// with one fact per parameter, "reaches a sink": the parameter appears
// in a sink call's argument or in a stream insert. A function returns
// key material when a return expression names it, calls a raw-word
// accessor, or returns a Key64/WrappedKey-typed param or local whole
// (the type rule is taint's own). SecretFlow composes both facts
// through call chains. At use sites a witness also follows
// param_to_return (a parameter that appears in a return expression),
// so one-hop laundering like log_debug(format_key(k)) is caught: the
// argument is tainted because format_key's return carries its secret
// param, and log_debug's param 0 reaches a printf sink.
#include <algorithm>
#include <string>

#include "analysis/analyses.h"
#include "analysis/lexer.h"
#include "analysis/secret_flow.h"

namespace analock::analysis {

namespace {

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

/// The argument texts of the call whose '(' sits at `open` in `expr`.
std::vector<std::string> call_args(std::string_view expr, std::size_t open) {
  int nest = 0;
  std::size_t close = open;
  for (; close < expr.size(); ++close) {
    if (expr[close] == '(') ++nest;
    if (expr[close] == ')' && --nest == 0) break;
  }
  return split_top_level_args(
      expr.substr(open + 1, close > open + 1 ? close - open - 1 : 0));
}

/// Names of the Key64/WrappedKey-typed params and locals of `fn`.
std::vector<std::string_view> secret_typed_names(const FunctionDef& fn) {
  std::vector<std::string_view> names;
  for (const Param& p : fn.params) {
    if (!p.name.empty() && is_secret_type(p.type)) names.push_back(p.name);
  }
  for (const VarDecl& local : fn.locals) {
    if (is_secret_type(local.type)) names.push_back(local.name);
  }
  return names;
}

/// The sink fact and the returns-secret base of one function.
SecretSummary seed(const CallGraph& graph, const FunctionRef& ref) {
  const FunctionDef& fn = ref.def();
  SecretSummary s(1, fn.params.size());
  const auto inserts = stream_insert_statements(*ref.file->source, fn);
  for (std::size_t i = 0; i < fn.params.size(); ++i) {
    const std::string& name = fn.params[i].name;
    if (name.empty()) continue;
    for (const CallSite& call : fn.calls) {
      if (is_sink_call(call) &&
          std::any_of(call.args.begin(), call.args.end(),
                      [&](const std::string& arg) {
                        return contains_word(arg, name);
                      })) {
        s.mark(0, i, call.callee);
        break;
      }
    }
    if (s.reaches(0, i)) continue;
    for (const auto& [offset, stmt] : inserts) {
      if (contains_word(stmt, name)) {
        s.mark(0, i, "operator<<");
        break;
      }
    }
  }
  const std::vector<std::string_view> typed = secret_typed_names(fn);
  for (const ReturnExpr& ret : fn.returns) {
    s.add_return(graph, ret.text);
    s.returns_tainted =
        s.returns_tainted || !first_secret_name(ret.text).empty() ||
        has_secret_accessor(ret.text) ||
        std::any_of(typed.begin(), typed.end(), [&](std::string_view name) {
          return contains_word(ret.text, name);
        });
  }
  return s;
}

/// Non-empty when `expr` carries key material: a secret-named
/// identifier, a raw-word accessor, a secret-typed variable used whole,
/// or (up to `depth` nested calls) a call whose value carries it.
std::string taint_witness(const SecretFlow& flow, std::string_view expr,
                          const FunctionDef& fn, int depth) {
  std::string found;
  for_each_identifier(expr, [&](std::string_view ident) {
    if (!is_secret_identifier(ident)) return true;
    found = std::string(ident);
    return false;
  });
  if (!found.empty()) return found;
  if (has_secret_accessor(expr)) return "bits()/to_hex() accessor";

  constexpr std::string_view kSpace = " \t\n\v\f\r";
  const std::size_t first = expr.find_first_not_of(kSpace);
  const std::string_view trimmed =
      first == std::string_view::npos
          ? std::string_view()
          : expr.substr(first, expr.find_last_not_of(kSpace) + 1 - first);
  if (!trimmed.empty() &&
      std::all_of(trimmed.begin(), trimmed.end(), is_word_char)) {
    const std::vector<std::string_view> typed = secret_typed_names(fn);
    if (std::find(typed.begin(), typed.end(), trimmed) != typed.end()) {
      return std::string(trimmed) + " (secret-typed)";
    }
  }
  if (depth <= 0) return {};

  // A call whose callee returns key material outright names the witness
  // first; a tainted argument into a parameter that appears in one of
  // the callee's return expressions is the fallback.
  if (any_callee(flow.graph(), expr, [&](const FunctionRef& callee,
                                         std::size_t) {
        if (!flow[callee].returns_tainted) return false;
        found = callee.def().base_name + "() returns key material";
        return true;
      })) {
    return found;
  }
  any_callee(flow.graph(), expr, [&](const FunctionRef& callee,
                                     std::size_t open) {
    const FunctionDef& def = callee.def();
    const auto returned = [&def](const Param& p) {
      return !p.name.empty() &&
             std::any_of(def.returns.begin(), def.returns.end(),
                         [&p](const ReturnExpr& ret) {
                           return contains_word(ret.text, p.name);
                         });
    };
    if (std::none_of(def.params.begin(), def.params.end(), returned)) {
      return false;
    }
    const std::vector<std::string> args = call_args(expr, open);
    for (std::size_t a = 0; a < args.size() && a < def.params.size(); ++a) {
      if (!returned(def.params[a])) continue;
      const std::string inner = taint_witness(flow, args[a], fn, depth - 1);
      if (inner.empty()) continue;
      found = inner + " via " + def.base_name + "()";
      return true;
    }
    return false;
  });
  return found;
}

}  // namespace

void run_taint_analysis(const std::vector<ParsedFile>& files,
                        const CallGraph& graph, int max_depth,
                        std::vector<Finding>& out) {
  std::vector<SecretSummary> seeds;
  seeds.reserve(graph.all().size());
  for (const FunctionRef& ref : graph.all()) {
    seeds.push_back(seed(graph, ref));
  }
  const SecretFlow flow(graph, std::move(seeds),
                        Releases{blessed_callees(graph), {}}, max_depth);
  const auto witness_of = [&](std::string_view expr, const FunctionDef& fn) {
    return taint_witness(flow, expr, fn, max_depth);
  };

  for (const ParsedFile& file : files) {
    const SourceFile& source = *file.source;
    for (const FunctionDef& fn : file.functions) {
      for (const CallSite& call : fn.calls) {
        if (is_sink_call(call)) {
          for (const std::string& arg : call.args) {
            const std::string witness = witness_of(arg, fn);
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
        flow.report_call(
            call, fn,
            [&](const std::string& arg) {
              return witness_of(arg, fn);
            },
            [&](const SecretSummary& callee, std::size_t a,
                const std::string& witness) {
              out.push_back(Finding::at(
                  source, call.offset, "taint-call",
                  "key material (" + witness +
                      ") flows into a sink through call chain " +
                      call.base_name + " -> " + callee.chain(0, a)));
            });
      }
      // Direct stream inserts of tainted expressions.
      for (const auto& [offset, stmt] : stream_insert_statements(source, fn)) {
        const std::string witness = witness_of(stmt, fn);
        if (witness.empty()) continue;
        // Anchor at the first non-space char of the statement.
        out.push_back(Finding::at(
            source, offset + skip_space(stmt, 0), "taint-sink",
            "key material (" + witness +
                ") inserted into an output stream; secrets must not "
                "enter obs/log output"));
      }
    }
  }
}

}  // namespace analock::analysis
