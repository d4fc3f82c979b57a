#include "analysis/engine.h"

#include <algorithm>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "analysis/analyses.h"
#include "analysis/callgraph.h"
#include "analysis/lexer.h"
#include "analysis/parser.h"
#include "par/thread_pool.h"

namespace analock::analysis {

namespace {

/// Inline allows per file: 1-based line -> suppressed rules. An allow
/// comment covers its own line and the line directly below.
std::map<int, std::set<std::string>> inline_allows(const SourceFile& source) {
  std::map<int, std::set<std::string>> allows;
  const int line_count = static_cast<int>(source.line_starts.size());
  for (int line = 1; line <= line_count; ++line) {
    const std::string_view text = source.line_text(line);
    const std::size_t tag = text.find("analock-verify:");
    if (tag == std::string_view::npos) continue;
    const std::size_t allow = text.find("allow(", tag);
    if (allow == std::string_view::npos) continue;
    const std::size_t open = allow + 6;
    const std::size_t close = text.find(')', open);
    if (close == std::string_view::npos) continue;
    const std::string_view list = text.substr(open, close - open);
    std::set<std::string> rules;
    std::string current;
    for (const char c : list) {
      if (c == ',') {
        if (!current.empty()) rules.insert(current);
        current.clear();
      } else if (c != ' ' && c != '\t') {
        current += c;
      }
    }
    if (!current.empty()) rules.insert(current);
    for (const int covered : {line, line + 1}) {
      allows[covered].insert(rules.begin(), rules.end());
    }
  }
  return allows;
}

}  // namespace

void Engine::add_source(std::string path, std::string text) {
  auto source = std::make_unique<SourceFile>();
  source->path = std::move(path);
  source->text = std::move(text);
  source->stripped = strip_source(source->text);
  source->line_starts = compute_line_starts(source->text);
  sources_.push_back(std::move(source));
}

bool Engine::add_file(const std::string& fs_path, std::string display_path) {
  std::ifstream in(fs_path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  add_source(std::move(display_path), buffer.str());
  return true;
}

std::vector<Finding> Engine::run() const {
  // Parsing dominates a verify run and each TU parses independently, so
  // the parse fans out over the shared pool (ANALOCK_THREADS sizes it;
  // =1 runs inline). Writes are lane-disjoint by the induction variable
  // and everything downstream of this barrier — call graph, analyses,
  // suppression, ordering — is serial, so findings and SARIF output are
  // byte-identical at any thread count.
  std::vector<ParsedFile> parsed(sources_.size());
  par::ThreadPool::shared().parallel_for(
      sources_.size(), [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          parsed[i] = parse_file(*sources_[i]);
        }
      });
  const CallGraph graph(parsed);

  const int depth = Options{}.max_depth;
  std::vector<Finding> findings;
  run_taint_analysis(parsed, graph, depth, findings);
  run_lock_analysis(parsed, graph, findings);
  run_determinism_analysis(parsed, findings);
  run_parallel_analysis(parsed, graph, depth, findings);
  run_lock_order_analysis(parsed, graph, findings);
  run_fp_exact_analysis(parsed, findings);
  run_ct_flow_analysis(parsed, graph, depth, findings);

  // Apply inline suppressions and attach fingerprints.
  std::map<const SourceFile*, std::map<int, std::set<std::string>>> allows;
  std::map<std::string, const SourceFile*> by_path;
  for (const auto& source : sources_) {
    allows.emplace(source.get(), inline_allows(*source));
    by_path[source->path] = source.get();
  }
  std::vector<Finding> kept;
  kept.reserve(findings.size());
  for (Finding& f : findings) {
    const SourceFile* source = by_path.at(f.file);
    const auto& file_allows = allows.at(source);
    const auto it = file_allows.find(f.line);
    if (it != file_allows.end() && it->second.count(f.rule) > 0) continue;
    f.fingerprint =
        compute_fingerprint(f.rule, f.file, source->line_text(f.line));
    kept.push_back(std::move(f));
  }

  // Stable order, then drop duplicate (file, line, rule, message) hits
  // from overlapping extraction paths.
  std::sort(kept.begin(), kept.end(), [](const Finding& a, const Finding& b) {
    if (a.file != b.file) return a.file < b.file;
    if (a.line != b.line) return a.line < b.line;
    if (a.col != b.col) return a.col < b.col;
    if (a.rule != b.rule) return a.rule < b.rule;
    return a.message < b.message;
  });
  kept.erase(std::unique(kept.begin(), kept.end(),
                         [](const Finding& a, const Finding& b) {
                           return a.file == b.file && a.line == b.line &&
                                  a.rule == b.rule && a.message == b.message;
                         }),
             kept.end());
  return kept;
}

}  // namespace analock::analysis
