// Cross-translation-unit call graph over every parsed file.
//
// Functions are indexed by base name and by "Class::method" pairs;
// resolution is name-based (no overload or template resolution), which
// is the right precision/recall trade-off for a security lint: a call
// that MIGHT reach a leaking helper should be reported.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/parser.h"

namespace analock::analysis {

/// A function definition, located in its file.
struct FunctionRef {
  const ParsedFile* file = nullptr;
  std::size_t index = 0;  ///< into file->functions
  std::size_t id = 0;     ///< position in CallGraph::all()

  [[nodiscard]] const FunctionDef& def() const {
    return file->functions[index];
  }
};

class CallGraph {
 public:
  explicit CallGraph(const std::vector<ParsedFile>& files);

  /// All definitions across every TU.
  [[nodiscard]] const std::vector<FunctionRef>& all() const { return all_; }

  /// Resolves a call site to candidate definitions. Prefers a
  /// "Class::method" match when the callee chain is qualified or a
  /// member call; otherwise matches by base name.
  [[nodiscard]] std::vector<FunctionRef> resolve(const CallSite& call) const;

  /// Definitions with the given base name.
  [[nodiscard]] const std::vector<FunctionRef>* by_base(
      std::string_view name) const;

 private:
  std::vector<FunctionRef> all_;
  std::map<std::string, std::vector<FunctionRef>, std::less<>> by_base_;
};

}  // namespace analock::analysis
