#include "analysis/callgraph.h"

namespace analock::analysis {

CallGraph::CallGraph(const std::vector<ParsedFile>& files) {
  for (const ParsedFile& file : files) {
    for (std::size_t i = 0; i < file.functions.size(); ++i) {
      FunctionRef ref{&file, i, all_.size()};
      all_.push_back(ref);
      by_base_[file.functions[i].base_name].push_back(ref);
    }
  }
}

const std::vector<FunctionRef>* CallGraph::by_base(
    std::string_view name) const {
  const auto it = by_base_.find(name);
  return it == by_base_.end() ? nullptr : &it->second;
}

std::vector<FunctionRef> CallGraph::resolve(const CallSite& call) const {
  const std::vector<FunctionRef>* candidates = by_base(call.base_name);
  if (candidates == nullptr) return {};
  // Qualified callee ("ns::fn", "obj.fn"): if some candidate's qualified
  // name is a suffix-compatible match, keep only those.
  if (call.callee != call.base_name) {
    const std::size_t sep = call.callee.rfind("::");
    if (sep != std::string::npos && sep > 0) {
      // Extract the qualifier component right before the base name.
      std::string qualifier;
      std::size_t q_end = sep;
      std::size_t q_begin = call.callee.rfind("::", q_end - 1);
      qualifier = call.callee.substr(
          q_begin == std::string::npos ? 0 : q_begin + 2,
          q_end - (q_begin == std::string::npos ? 0 : q_begin + 2));
      std::vector<FunctionRef> filtered;
      for (const FunctionRef& ref : *candidates) {
        const FunctionDef& def = ref.def();
        if (def.class_name == qualifier ||
            def.qualified_name.find(qualifier + "::") != std::string::npos) {
          filtered.push_back(ref);
        }
      }
      if (!filtered.empty()) return filtered;
    }
  }
  return *candidates;
}

}  // namespace analock::analysis
