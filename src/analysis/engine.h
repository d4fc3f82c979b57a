// The analock-verify engine: loads sources, parses them, builds the
// cross-TU call graph, runs every analysis pass, applies inline
// suppressions, and returns fingerprinted findings in stable order.
//
// Suppression is one inline comment, the only suppression syntax:
//
//     // analock-verify: allow(rule[, rule...]) rationale
//
// covers its own line and the line directly below, so a comment-only
// line shields the statement it annotates. Rationale text after the
// closing parenthesis is free-form but expected by convention.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "analysis/model.h"

namespace analock::analysis {

class Engine {
 public:
  struct Options {
    int max_depth = 4;  ///< taint propagation depth across calls
  };

  Engine() = default;
  explicit Engine(Options options) : options_(options) {}

  /// Adds an in-memory source (unit tests, fixtures).
  void add_source(std::string path, std::string text);

  /// Reads `fs_path` from disk and adds it under `display_path`.
  /// Returns false (and adds nothing) when the file cannot be read.
  bool add_file(const std::string& fs_path, std::string display_path);

  [[nodiscard]] std::size_t source_count() const { return sources_.size(); }

  /// Parses everything and runs all analyses. Idempotent per call: the
  /// engine can run again after more sources are added.
  [[nodiscard]] std::vector<Finding> run() const;

 private:
  Options options_;
  std::vector<std::unique_ptr<SourceFile>> sources_;
};

}  // namespace analock::analysis
