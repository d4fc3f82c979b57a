// Experiment E-SA: analock-verify throughput. Times a full static
// analysis pass — offset-preserving strip, parse, cross-TU call graph,
// all analysis families including the constant-time flow pass — over the
// repo's own src/ tree, then each analysis family alone on that tree
// parsed once up front (family_<name>), plus a SARIF-emission
// microbenchmark. When the
// bench runs outside a repo checkout (no src/analock.h within four
// parent levels) it falls back to a synthetic corpus with the same rule
// mix so the trajectory artifact stays comparable.
//
// Deliberately NOT built on bench_common.h: the analyzer bench links
// only analock_analysis + analock_obs, proving the analysis library
// carries no accidental dependency on the simulation stack.
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/analyses.h"
#include "analysis/callgraph.h"
#include "analysis/engine.h"
#include "analysis/lexer.h"
#include "analysis/parser.h"
#include "analysis/model.h"
#include "analysis/sarif.h"
#include "obs/obs.h"
#include "obs/prof/harness.h"

namespace fs = std::filesystem;

namespace {

using analock::analysis::Engine;
using analock::analysis::Finding;
using analock::prof::CaseOptions;
using analock::prof::do_not_optimize;
using analock::prof::Harness;

/// One preloaded translation unit: (display path, full text). Loading
/// happens once at startup so the timed region measures the analyzer,
/// not disk I/O.
using Corpus = std::vector<std::pair<std::string, std::string>>;

/// Walks up from the working directory looking for the repo checkout
/// (identified by src/analock.h), at most four parent levels — the
/// depth of build/bench/ relative to the repo root with slack.
fs::path find_repo_src() {
  fs::path dir = fs::current_path();
  for (int level = 0; level <= 4; ++level) {
    const fs::path candidate = dir / "src";
    if (fs::exists(candidate / "analock.h")) return candidate;
    if (!dir.has_parent_path() || dir.parent_path() == dir) break;
    dir = dir.parent_path();
  }
  return {};
}

bool is_cpp_source(const fs::path& path) {
  const std::string ext = path.extension().string();
  return ext == ".cpp" || ext == ".h" || ext == ".hpp" || ext == ".cc";
}

Corpus load_tree(const fs::path& root) {
  Corpus corpus;
  std::vector<fs::path> files;
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    if (entry.is_regular_file() && is_cpp_source(entry.path())) {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  for (const fs::path& path : files) {
    std::ifstream in(path, std::ios::binary);
    if (!in) continue;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    corpus.emplace_back(path.generic_string(), buffer.str());
  }
  return corpus;
}

/// Fallback corpus: `n` synthetic TUs covering the analyzer's hot
/// paths — taint sources/sinks, lock misuse, parallel regions, and the
/// four ct-flow rule shapes — so the bench exercises every family even
/// without a checkout.
Corpus synthetic_corpus(int n) {
  Corpus corpus;
  for (int i = 0; i < n; ++i) {
    std::ostringstream tu;
    tu << "// synthetic TU " << i << "\n"
       << "namespace syn" << i << " {\n"
       << "unsigned long long unwrap(unsigned long long m) {\n"
       << "  const unsigned long long chip_key = m ^ 0xA5u;\n"
       << "  return chip_key;\n"
       << "}\n"
       << "int gate(unsigned long long m, const int* table) {\n"
       << "  if (unwrap(m) != 0) { return table[unwrap(m) & 7u]; }\n"
       << "  return 0;\n"
       << "}\n"
       << "unsigned long long residue(unsigned long long wrapped_key,\n"
       << "                           unsigned long long m) {\n"
       << "  return wrapped_key % m;\n"
       << "}\n"
       << "void log_state(unsigned long long key_bits) {\n"
       << "  std::printf(\"%llx\", key_bits);\n"
       << "}\n"
       << "}  // namespace syn" << i << "\n";
    corpus.emplace_back("src/lock/syn" + std::to_string(i) + ".cpp",
                        tu.str());
  }
  return corpus;
}

std::vector<Finding> analyze(const Corpus& corpus) {
  Engine engine;
  for (const auto& [path, text] : corpus) {
    engine.add_source(path, text);  // copies; the corpus is reused
  }
  return engine.run();
}

}  // namespace

int main() {
  analock::obs::registry().set_enabled(true);

  const fs::path src = find_repo_src();
  Corpus corpus = src.empty() ? synthetic_corpus(64) : load_tree(src);
  std::size_t bytes = 0;
  for (const auto& [path, text] : corpus) bytes += text.size();
  std::printf("bench_static_analysis: %zu TUs, %.1f KiB (%s corpus)\n",
              corpus.size(), static_cast<double>(bytes) / 1024.0,
              src.empty() ? "synthetic" : "repo src/");

  Harness h("bench_static_analysis");

  // Full pipeline: strip + parse + call graph + every analysis family.
  CaseOptions full_opts;
  full_opts.ops_per_rep = static_cast<double>(corpus.size());
  h.add_case("verify_full_run", [&corpus] {
    const std::vector<Finding> findings = analyze(corpus);
    do_not_optimize(findings.data());
  }, full_opts);

  // Per family: the corpus is loaded, parsed and call-graphed once, so
  // each case times one family's pass alone.
  std::vector<std::unique_ptr<analock::analysis::SourceFile>> sources;
  for (const auto& [path, text] : corpus) {
    auto source = std::make_unique<analock::analysis::SourceFile>();
    source->path = path;
    source->text = text;
    source->stripped = analock::analysis::strip_source(source->text);
    source->line_starts = analock::analysis::compute_line_starts(source->text);
    sources.push_back(std::move(source));
  }
  std::vector<analock::analysis::ParsedFile> parsed;
  parsed.reserve(sources.size());
  for (const auto& source : sources) {
    parsed.push_back(analock::analysis::parse_file(*source));
  }
  const analock::analysis::CallGraph graph(parsed);
  const int depth = Engine::Options{}.max_depth;
  namespace an = analock::analysis;
  using Family = std::function<void(std::vector<Finding>&)>;
  const std::pair<const char*, Family> families[] = {
      {"family_taint",
       [&](auto& out) { an::run_taint_analysis(parsed, graph, depth, out); }},
      {"family_locks",
       [&](auto& out) { an::run_lock_analysis(parsed, graph, out); }},
      {"family_determinism",
       [&](auto& out) { an::run_determinism_analysis(parsed, out); }},
      {"family_parallel",
       [&](auto& out) {
         an::run_parallel_analysis(parsed, graph, depth, out);
       }},
      {"family_lock_order",
       [&](auto& out) { an::run_lock_order_analysis(parsed, graph, out); }},
      {"family_fp_exact",
       [&](auto& out) { an::run_fp_exact_analysis(parsed, out); }},
      {"family_ct_flow",
       [&](auto& out) { an::run_ct_flow_analysis(parsed, graph, depth, out); }},
  };
  for (const auto& [name, run_family] : families) {
    h.add_case(name, [&run_family] {
      std::vector<Finding> findings;
      run_family(findings);
      do_not_optimize(findings.data());
    }, full_opts);
  }

  // SARIF emission on a fixed finding set (synthetic so the case has
  // non-trivial work even when the repo tree is clean).
  const std::vector<Finding> fixed = analyze(synthetic_corpus(16));
  CaseOptions sarif_opts;
  sarif_opts.ops_per_rep = static_cast<double>(fixed.size());
  h.add_case("sarif_emit", [&fixed] {
    const std::string sarif = analock::analysis::to_sarif(fixed);
    do_not_optimize(sarif.data());
  }, sarif_opts);

  return h.run();
}
