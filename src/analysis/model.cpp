#include "analysis/model.h"

#include <algorithm>
#include <utility>

namespace analock::analysis {

int SourceFile::line_of(std::size_t offset) const {
  const auto it =
      std::upper_bound(line_starts.begin(), line_starts.end(), offset);
  return static_cast<int>(it - line_starts.begin());
}

int SourceFile::col_of(std::size_t offset) const {
  const int line = line_of(offset);
  const std::size_t start = line_starts[static_cast<std::size_t>(line - 1)];
  return static_cast<int>(offset - start) + 1;
}

std::string_view SourceFile::line_text(int line) const {
  if (line < 1 || static_cast<std::size_t>(line) > line_starts.size()) {
    return {};
  }
  const std::size_t start = line_starts[static_cast<std::size_t>(line - 1)];
  std::size_t end = text.size();
  if (static_cast<std::size_t>(line) < line_starts.size()) {
    end = line_starts[static_cast<std::size_t>(line)];
  }
  std::string_view out(text.data() + start, end - start);
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
    out.remove_suffix(1);
  }
  return out;
}

const std::vector<RuleInfo>& rule_catalog() {
  static const std::vector<RuleInfo> rules = {
      {"taint-sink",
       "key/PUF material reaches a logging, metrics, or stream sink"},
      {"taint-call",
       "key/PUF material flows through a call chain into a sink"},
      {"guarded-by",
       "member annotated guarded_by(mutex) accessed without holding it"},
      {"fp-unordered-accum",
       "floating-point accumulation ordered by unordered-container "
       "iteration"},
      {"unordered-iter",
       "range-for over an unordered container (hash iteration order "
       "varies run to run)"},
      {"rng-source",
       "std <random> engine constructed from a non-sim::Rng source, or an "
       "ambient entropy source (random_device, rand/srand, time(nullptr))"},
      {"determinism-clock",
       "ambient steady/system/high_resolution clock read outside an "
       "obs::Clock now_ns body"},
      {"parallel-shared-write",
       "by-reference capture written inside a parallel region without "
       "lane-disjoint indexing, a held lock, or an atomic type"},
      {"parallel-unsafe-call",
       "call from a parallel region into a function that touches mutable "
       "static state or is not annotated '// analock: thread_safe'"},
      {"lock-order-cycle",
       "lock acquired while holding another in an order that forms a "
       "cycle across the codebase (potential deadlock)"},
      {"fp-reassoc",
       "floating-point reduction whose result depends on association "
       "order (std::reduce, pairwise/tree sums, thread-count-dependent "
       "accumulation) inside bit-exact lane code"},
      {"fp-contract",
       "fused-multiply-add or contraction-sensitive expression inside "
       "bit-exact lane code, or '#pragma STDC FP_CONTRACT ON' in any file "
       "(result differs from unfused a*b+c)"},
      {"secret-branch",
       "if/while/ternary/switch condition (or short-circuit return) "
       "decided by key/PUF material, directly or through a call chain"},
      {"secret-index",
       "key/PUF material used as a subscript or pointer offset "
       "(data-dependent memory access pattern)"},
      {"vartime-op",
       "variable-time operation on key/PUF material: division/modulo, "
       "secret-bounded loop trip count, or early loop exit"},
      {"ct-leak-call",
       "key/PUF material passed to a known variable-time callee "
       "(memcmp/strcmp/std::find/map lookup); use analock::ct_equal"},
      {"secret-compare",
       "early-exit ==/!= on key/PUF material; use analock::ct_equal"},
  };
  return rules;
}

bool is_known_rule(std::string_view rule) {
  for (const RuleInfo& info : rule_catalog()) {
    if (rule == info.id) return true;
  }
  return false;
}

Finding Finding::at(const SourceFile& source, std::size_t offset,
                    std::string rule, std::string message) {
  Finding f;
  f.file = source.path;
  f.line = source.line_of(offset);
  f.col = source.col_of(offset);
  f.rule = std::move(rule);
  f.message = std::move(message);
  return f;
}

std::string Finding::render() const {
  std::string out;
  out.reserve(file.size() + message.size() + rule.size() + 32);
  out += file;
  out += ':';
  out += std::to_string(line);
  out += ':';
  out += std::to_string(col);
  out += ": warning: ";
  out += message;
  out += " [";
  out += rule;
  out += ']';
  return out;
}

std::uint64_t fnv1a64(std::string_view text) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::string compute_fingerprint(std::string_view rule, std::string_view path,
                                std::string_view line_text) {
  // Normalize the line: collapse all whitespace runs to one space.
  std::string normalized;
  normalized.reserve(line_text.size());
  bool in_space = true;  // also trims leading whitespace
  for (const char c : line_text) {
    if (c == ' ' || c == '\t') {
      if (!in_space) normalized += ' ';
      in_space = true;
    } else {
      normalized += c;
      in_space = false;
    }
  }
  while (!normalized.empty() && normalized.back() == ' ') normalized.pop_back();

  std::string material;
  material.reserve(rule.size() + path.size() + normalized.size() + 2);
  material += rule;
  material += '|';
  material += path;
  material += '|';
  material += normalized;

  const std::uint64_t hash = fnv1a64(material);
  static const char* hex = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 0; i < 16; ++i) {
    out[static_cast<std::size_t>(15 - i)] =
        hex[(hash >> (4 * i)) & 0xF];
  }
  return out;
}

}  // namespace analock::analysis
