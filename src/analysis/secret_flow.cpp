#include "analysis/secret_flow.h"

#include <algorithm>
#include <cctype>

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

/// Member-call names that collide with the std:: vocabulary (atomic
/// load/store, smart-pointer get, optional value, ...).
bool is_std_vocab_name(std::string_view base_name) {
  static const std::set<std::string_view> kStdNames = {
      "load", "store", "exchange", "get", "value",
      "reset", "swap", "data", "read",
  };
  return kStdNames.count(base_name) > 0;
}

/// A call spelled `name(` inside an expression.
struct CallText {
  std::string_view name;
  std::size_t open = 0;  ///< offset of the '('
  bool member = false;   ///< a '.' or '->' precedes the name
};

/// Finds the next call at or after `pos` and moves `pos` past its name.
bool next_call(std::string_view text, std::size_t& pos, CallText& call) {
  while (pos < text.size()) {
    if (!is_word_char(text[pos])) {
      ++pos;
      continue;
    }
    const std::size_t begin = pos;
    while (pos < text.size() && is_word_char(text[pos])) ++pos;
    const std::size_t open = skip_space(text, pos);
    if (std::isdigit(static_cast<unsigned char>(text[begin])) != 0 ||
        open >= text.size() || text[open] != '(') {
      continue;
    }
    call.name = text.substr(begin, pos - begin);
    call.open = open;
    call.member =
        (begin >= 1 && text[begin - 1] == '.') ||
        (begin >= 2 && text[begin - 2] == '-' && text[begin - 1] == '>');
    return true;
  }
  return false;
}

}  // namespace

bool has_secret_accessor(std::string_view text) {
  CallText call;
  for (std::size_t pos = 0; next_call(text, pos, call);) {
    if (call.member && (call.name == "bits" || call.name == "to_hex")) {
      return true;
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
    if (lower.starts_with(benign)) return false;
  }
  for (const char* benign : kBenignSuffixes) {
    if (lower.ends_with(benign)) return false;
  }
  for (const char* marker : kOracleNameParts) {
    if (lower.find(marker) != std::string::npos) return true;
  }
  // puf_* / key_* prefixed identifiers carry material by convention.
  return lower.starts_with("puf_") || lower.starts_with("key_");
}

std::string first_secret_name(std::string_view expr) {
  std::string found;
  for_each_identifier(expr, [&](std::string_view ident) {
    const std::size_t next =
        skip_space(expr, ident.data() - expr.data() + ident.size());
    const bool is_callee = next < expr.size() && expr[next] == '(';
    if (is_callee || !is_secret_identifier(ident)) return true;
    found = std::string(ident);
    return false;
  });
  return found;
}

bool is_secret_type(std::string_view type) {
  return contains_word(type, "Key64") || contains_word(type, "WrappedKey");
}

bool is_opaque_member_call(const CallSite& call) {
  return call.callee != call.base_name && is_std_vocab_name(call.base_name);
}

bool Releases::is_declassified(const SourceFile& source,
                               std::size_t offset) const {
  const auto it = declassified.find(&source);
  return it != declassified.end() &&
         it->second.count(source.line_of(offset)) > 0;
}

std::set<std::string, std::less<>> blessed_callees(const CallGraph& graph) {
  std::set<std::string, std::less<>> names = {"ct_equal"};
  for (const FunctionRef& ref : graph.all()) {
    if (ref.def().is_ct_safe) names.insert(ref.def().base_name);
  }
  return names;
}

std::map<const SourceFile*, std::set<int>> declassified_lines(
    const std::vector<ParsedFile>& files) {
  std::map<const SourceFile*, std::set<int>> out;
  for (const ParsedFile& file : files) {
    const SourceFile& source = *file.source;
    std::set<int>& lines = out[&source];
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
      const bool has_reason = std::any_of(
          text.begin() + open, text.begin() + close, [](char c) {
            return std::isspace(static_cast<unsigned char>(c)) == 0;
          });
      if (!has_reason) continue;
      lines.insert(line);
      lines.insert(line + 1);
    }
  }
  return out;
}

bool any_callee(
    const CallGraph& graph, std::string_view expr,
    const std::function<bool(const FunctionRef&, std::size_t)>& visit) {
  CallText call;
  for (std::size_t pos = 0; next_call(expr, pos, call);) {
    if (call.member && is_std_vocab_name(call.name)) continue;
    const std::vector<FunctionRef>* candidates = graph.by_base(call.name);
    if (candidates == nullptr) continue;
    for (const FunctionRef& callee : *candidates) {
      if (visit(callee, call.open)) return true;
    }
  }
  return false;
}

void SecretSummary::add_return(const CallGraph& graph,
                               std::string_view text) {
  any_callee(graph, text, [this](const FunctionRef& callee, std::size_t) {
    return_callees.push_back(callee.id);
    return false;
  });
}

void SecretFlow::report_call(
    const CallSite& call, const FunctionDef& caller,
    const std::function<std::string(const std::string&)>& witness,
    const std::function<void(const SecretSummary&, std::size_t,
                             const std::string&)>& report) const {
  for (const FunctionRef& callee : graph_.resolve(call)) {
    if (&callee.def() == &caller) continue;
    const SecretSummary& s = summaries_[callee.id];
    for (std::size_t a = 0;
         a < call.args.size() && a < callee.def().params.size(); ++a) {
      const auto first = s.to.begin() + a * s.facts;
      if (std::find(first, first + s.facts, 1) == first + s.facts) continue;
      const std::string found = witness(call.args[a]);
      if (found.empty()) continue;
      report(s, a, found);
      return;
    }
  }
}

SecretFlow::SecretFlow(const CallGraph& graph,
                       std::vector<SecretSummary> seeds,
                       const Releases& releases, int max_depth)
    : graph_(graph), summaries_(std::move(seeds)) {
  // Monotone boolean facts, so the loop converges; the round cap is a
  // safety valve against resolver ambiguity blowups.
  const int rounds = std::max(max_depth, 8);
  for (int round = 0; round < rounds; ++round) {
    bool changed = false;
    for (const FunctionRef& ref : graph.all()) {
      const FunctionDef& fn = ref.def();
      SecretSummary& s = summaries_[ref.id];
      if (!s.returns_tainted &&
          std::any_of(s.return_callees.begin(), s.return_callees.end(),
                      [this](std::size_t id) {
                        return summaries_[id].returns_tainted;
                      })) {
        s.returns_tainted = true;
        changed = true;
      }

      if (fn.is_ct_safe || fn.params.empty()) continue;
      for (const CallSite& call : fn.calls) {
        if (releases.blessed.count(call.base_name) > 0 ||
            is_opaque_member_call(call) ||
            releases.is_declassified(*ref.file->source, call.offset)) {
          continue;
        }
        for (const FunctionRef& callee_ref : graph.resolve(call)) {
          if (callee_ref.id == ref.id) continue;
          const SecretSummary& cs = summaries_[callee_ref.id];
          const FunctionDef& callee = callee_ref.def();
          for (std::size_t i = 0; i < fn.params.size(); ++i) {
            const std::string& pname = fn.params[i].name;
            if (pname.empty()) continue;
            for (std::size_t a = 0;
                 a < call.args.size() && a < callee.params.size(); ++a) {
              if (!contains_word(call.args[a], pname)) continue;
              for (std::size_t f = 0; f < s.facts; ++f) {
                if (!cs.reaches(f, a) || s.reaches(f, i)) continue;
                s.mark(f, i, callee.base_name + " -> " + cs.chain(f, a));
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

}  // namespace analock::analysis
