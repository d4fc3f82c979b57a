// verify: the static analyzer. Operation p is one full analock-verify
// pass (Engine::add_source for every TU, then Engine::run) over a pinned
// corpus: src/ and tests/verify_fixtures/ as of commit 391e94b, extracted
// from corpus/analock-391e94b.tar.gz. Pinning keeps later src/ edits from
// changing the input; the fixtures give the pass findings to fingerprint.
// The corpus does not depend on the seed.
//
// The traced form decomposes the pass through the public analysis
// functions Engine::run calls. It stops before Engine::run's last stage
// (inline suppressions, fingerprints, ordering), which has no public
// entry point: every finding of the untraced pass must be among the
// decomposed pass's raw findings.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>

#include "analysis/analyses.h"
#include "analysis/callgraph.h"
#include "analysis/engine.h"
#include "analysis/lexer.h"
#include "analysis/parser.h"
#include "e2e.h"
#include "par/thread_pool.h"

namespace analock::e2e {

namespace {

namespace fs = std::filesystem;
using analysis::Finding;

using Corpus = std::vector<std::pair<std::string, std::string>>;

Corpus load_corpus(const std::string& dir) {
  if (dir.empty() || !fs::is_directory(dir)) {
    throw std::runtime_error("verify needs --corpus DIR (the extracted "
                             "pinned corpus); got '" + dir + "'");
  }
  std::vector<fs::path> files;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    const std::string ext = entry.path().extension().string();
    if (entry.is_regular_file() &&
        (ext == ".cpp" || ext == ".h" || ext == ".hpp" || ext == ".cc")) {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  Corpus corpus;
  for (const fs::path& path : files) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    if (!in) throw std::runtime_error("cannot read " + path.string());
    corpus.emplace_back(fs::relative(path, dir).generic_string(), text.str());
  }
  if (corpus.empty()) throw std::runtime_error("corpus " + dir + " is empty");
  return corpus;
}

/// What identifies a finding before Engine::run fingerprints it.
using FindingKey = std::tuple<std::string, int, int, std::string, std::string>;

FindingKey key_of(const Finding& f) {
  return {f.file, f.line, f.col, f.rule, f.message};
}

class Verify final : public Workload {
 public:
  explicit Verify(const Config& config)
      : corpus_(load_corpus(config.corpus_dir)) {}

  std::size_t inputs() const override { return 1; }  // the pinned corpus
  std::string variant() const override { return "verify"; }
  std::string sizes_json() const override {
    std::size_t bytes = 0;
    for (const auto& [path, text] : corpus_) bytes += text.size();
    return "{\"tus\":" + std::to_string(corpus_.size()) +
           ",\"bytes\":" + std::to_string(bytes) +
           ",\"corpus\":\"391e94b:src,tests/verify_fixtures\"}";
  }

  OpResult run(std::size_t /*input*/, SpanLog* trace) override {
    OpResult result;
    std::vector<Finding> findings;
    {
      const OpScope op(trace, "verify.pass", result);
      if (trace == nullptr) {
        analysis::Engine engine;
        for (const auto& [path, text] : corpus_) engine.add_source(path, text);
        findings = engine.run();
      } else {
        findings = decomposed_pass(*trace);
      }
    }
    if (trace == nullptr) {
      untraced_ = findings;
    } else {
      // The warm-up always runs an untraced pass before any traced one.
      std::set<FindingKey> raw;
      for (const Finding& f : findings) raw.insert(key_of(f));
      for (const Finding& f : untraced_) {
        if (raw.count(key_of(f)) == 0) {
          result.errors.push_back("decomposed pass misses " + f.rule +
                                  " at " + f.file + ":" +
                                  std::to_string(f.line));
        }
      }
      if (result.errors.empty()) findings = untraced_;
    }
    Digest digest;
    digest.add(static_cast<std::uint64_t>(findings.size()));
    for (const Finding& f : findings) {
      digest.add(f.file);
      digest.add(static_cast<std::uint64_t>(f.line));
      digest.add(static_cast<std::uint64_t>(f.col));
      digest.add(f.rule);
      digest.add(f.message);
      digest.add(f.fingerprint);
    }
    result.digest = digest.hex();
    result.work = static_cast<double>(corpus_.size());
    if (trace != nullptr) traced_findings_ += static_cast<double>(findings.size());
    return result;
  }

  std::map<std::string, double> layers(const TraceSummary& t) const override {
    const auto& s = t.spans;
    const double ops = static_cast<double>(t.ops);
    const double op_ms = total_ms(s, "verify.pass");
    std::map<std::string, double> out = {
        {"analysis.load_ms", total_ms(s, "analysis.load") / ops},
        {"analysis.parse_ms", total_ms(s, "analysis.parse_file") / ops},
        {"analysis.callgraph_ms", total_ms(s, "analysis.CallGraph") / ops},
        {"analysis.tu_per_s", ops * static_cast<double>(corpus_.size()) /
                                  (t.wall_ns / 1e9)},
        {"analysis.findings", traced_findings_ / ops},
        {"trace_coverage_frac",
         op_ms > 0.0 ? 1.0 - self_ms(s, "verify.pass") / op_ms : 0.0},
    };
    for (const auto& [family, span] : kFamilies) {
      out["analysis." + std::string(family) + "_ms"] = total_ms(s, span) / ops;
    }
    return out;
  }

 private:
  static constexpr std::pair<const char*, const char*> kFamilies[] = {
      {"taint", "analysis.run_taint_analysis"},
      {"locks", "analysis.run_lock_analysis"},
      {"determinism", "analysis.run_determinism_analysis"},
      {"parallel", "analysis.run_parallel_analysis"},
      {"lock_order", "analysis.run_lock_order_analysis"},
      {"fp_exact", "analysis.run_fp_exact_analysis"},
      {"ct_flow", "analysis.run_ct_flow_analysis"},
  };

  /// Engine::add_source for every TU plus Engine::run up to its last
  /// stage, spelled out through the public analysis functions so each
  /// stage gets a span. Returns the raw findings of the seven families.
  std::vector<Finding> decomposed_pass(SpanLog& trace) const {
    std::vector<std::unique_ptr<analysis::SourceFile>> sources;
    {
      const SpanLog::Scope span(&trace, "analysis.load");
      for (const auto& [path, text] : corpus_) {
        auto source = std::make_unique<analysis::SourceFile>();
        source->path = path;
        source->text = text;
        source->stripped = analysis::strip_source(source->text);
        source->line_starts = analysis::compute_line_starts(source->text);
        sources.push_back(std::move(source));
      }
    }
    std::vector<analysis::ParsedFile> parsed(sources.size());
    {
      const SpanLog::Scope span(&trace, "analysis.parse_file");
      par::ThreadPool::shared().parallel_for(
          sources.size(), [&](std::size_t begin, std::size_t end) {
            for (std::size_t i = begin; i < end; ++i) {
              parsed[i] = analysis::parse_file(*sources[i]);
            }
          });
    }
    std::optional<analysis::CallGraph> graph;
    {
      const SpanLog::Scope span(&trace, "analysis.CallGraph");
      graph.emplace(parsed);
    }
    const int depth = analysis::Engine::Options{}.max_depth;
    std::vector<Finding> findings;
    {
      const SpanLog::Scope span(&trace, kFamilies[0].second);
      analysis::run_taint_analysis(parsed, *graph, depth, findings);
    }
    {
      const SpanLog::Scope span(&trace, kFamilies[1].second);
      analysis::run_lock_analysis(parsed, *graph, findings);
    }
    {
      const SpanLog::Scope span(&trace, kFamilies[2].second);
      analysis::run_determinism_analysis(parsed, findings);
    }
    {
      const SpanLog::Scope span(&trace, kFamilies[3].second);
      analysis::run_parallel_analysis(parsed, *graph, depth, findings);
    }
    {
      const SpanLog::Scope span(&trace, kFamilies[4].second);
      analysis::run_lock_order_analysis(parsed, *graph, findings);
    }
    {
      const SpanLog::Scope span(&trace, kFamilies[5].second);
      analysis::run_fp_exact_analysis(parsed, findings);
    }
    {
      const SpanLog::Scope span(&trace, kFamilies[6].second);
      analysis::run_ct_flow_analysis(parsed, *graph, depth, findings);
    }
    return findings;
  }

  Corpus corpus_;
  std::vector<Finding> untraced_;  ///< findings of the latest untraced pass
  double traced_findings_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_verify(const Config& config) {
  return std::make_unique<Verify>(config);
}

}  // namespace analock::e2e
