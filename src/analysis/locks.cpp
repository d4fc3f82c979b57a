// Lock-capability checking for `// analock: guarded_by(m)` annotations.
//
// For every annotated member, every access site in member functions of
// the owning class — across ALL translation units, so out-of-line
// definitions in .cpp files are covered — must be dominated by a live
// lock_guard/scoped_lock/unique_lock on the named mutex. A function
// annotated `// analock: requires(m)` is assumed to be called with `m`
// held; its body is exempt and its call sites are checked instead.
// Constructors and destructors are exempt (no concurrent access before
// the object is shared / after teardown begins).
#include <cctype>
#include <map>
#include <set>
#include <string>

#include "analysis/analyses.h"

namespace analock::analysis {

namespace {

/// True when a lock argument text names the mutex: "mu_", "this->mu_",
/// "other.mu_" all count.
bool lock_names_mutex(const std::string& arg, const std::string& mutex_name) {
  if (arg == mutex_name) return true;
  const std::size_t pos = arg.rfind(mutex_name);
  if (pos == std::string::npos ||
      pos + mutex_name.size() != arg.size()) {
    return false;
  }
  const char before = pos > 0 ? arg[pos - 1] : '\0';
  return before == '.' || before == '>' || before == ':';
}

}  // namespace

bool held_at(const FunctionDef& fn, const std::string& mutex_name,
             std::size_t offset) {
  for (const LockHold& hold : fn.locks) {
    if (hold.begin_offset <= offset && offset < hold.end_offset &&
        lock_names_mutex(hold.mutex_name, mutex_name)) {
      return true;
    }
  }
  return false;
}

void run_lock_analysis(const std::vector<ParsedFile>& files,
                       const CallGraph& graph, std::vector<Finding>& out) {
  // class -> member -> mutex, unioned across all TUs (annotations live
  // in headers; accesses live in both headers and .cpp files).
  std::map<std::string, std::map<std::string, std::string>> guarded;
  for (const ParsedFile& file : files) {
    for (const AnnotatedMember& m : file.guarded_members) {
      guarded[m.class_name][m.member_name] = m.mutex_name;
    }
  }
  if (guarded.empty()) return;

  // Functions annotated requires(m), per class: their bodies are exempt
  // and their call sites must hold m.
  std::map<std::string, std::map<std::string, std::string>> requires_fns;
  for (const FunctionRef& ref : graph.all()) {
    const FunctionDef& fn = ref.def();
    if (!fn.requires_mutex.empty() && !fn.class_name.empty()) {
      requires_fns[fn.class_name][fn.base_name] = fn.requires_mutex;
    }
  }

  for (const ParsedFile& file : files) {
    const SourceFile& source = *file.source;
    for (const FunctionDef& fn : file.functions) {
      if (fn.class_name.empty() || fn.is_ctor_or_dtor) continue;
      const auto class_it = guarded.find(fn.class_name);
      const auto req_class_it = requires_fns.find(fn.class_name);

      if (class_it != guarded.end()) {
        for (const MemberAccess& access : fn.accesses) {
          const auto member_it = class_it->second.find(access.name);
          if (member_it == class_it->second.end()) continue;
          const std::string& mutex_name = member_it->second;
          if (fn.requires_mutex == mutex_name) continue;
          if (held_at(fn, mutex_name, access.offset)) continue;
          out.push_back(Finding::at(
              source, access.offset, "guarded-by",
              "member '" + access.name + "' of " + fn.class_name +
                  " is guarded by '" + mutex_name +
                  "' but accessed in " + fn.base_name +
                  "() without holding it"));
        }
      }

      // Call sites of requires(m) siblings must hold m.
      if (req_class_it != requires_fns.end()) {
        for (const CallSite& call : fn.calls) {
          if (call.callee != call.base_name &&
              call.callee.rfind("this->", 0) != 0) {
            continue;  // only unqualified / this-> member calls
          }
          const auto req_it = req_class_it->second.find(call.base_name);
          if (req_it == req_class_it->second.end()) continue;
          const std::string& mutex_name = req_it->second;
          if (fn.requires_mutex == mutex_name) continue;
          if (held_at(fn, mutex_name, call.offset)) continue;
          out.push_back(Finding::at(
              source, call.offset, "guarded-by",
              "call to " + call.base_name + "() requires '" +
                  mutex_name + "' held (annotated analock: requires), "
                  "but " + fn.base_name + "() does not hold it"));
        }
      }
    }
  }
}

}  // namespace analock::analysis
