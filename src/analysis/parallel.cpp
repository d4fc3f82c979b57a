// Parallel-region safety checking.
//
// A `ThreadPool::parallel_for(n, [caps](begin, end) {...})` lambda body
// — or the whole body of a function annotated `// analock:
// parallel_region` — executes concurrently on every pool worker. Two
// rules police what such a region may do:
//
// parallel-shared-write: a write whose target is shared across lanes
// (a by-reference capture, a member, a reference/pointer/span
// parameter, or a global) must be lane-disjoint — indexed by the
// region's induction variables (begin/end or anything derived from
// them) — or the target must be a `// analock: guarded_by` member with
// its lock held at the write, or a std::atomic. Writes to variables
// declared inside the region, to induction variables, and to by-value
// captures are lane-local and always fine.
//
// parallel-unsafe-call: a call that leaves the region must reach a
// function annotated `// analock: thread_safe`. Calls on region-local
// receivers (`stream.gaussian()` where `stream` is declared in the
// region) are exempt, as are calls the cross-TU graph cannot resolve
// (std:: and libc). A resolved callee that touches a mutable static
// local — directly or through its own calls, up to the taint depth —
// is reported with the static named even before the annotation check,
// because no annotation discipline makes hidden shared state safe.
#include <algorithm>
#include <cctype>
#include <map>
#include <set>
#include <string>

#include "analysis/analyses.h"
#include "analysis/lexer.h"

namespace analock::analysis {

namespace {

bool lock_names_mutex(const std::string& arg, const std::string& mutex_name) {
  if (arg == mutex_name) return true;
  const std::size_t pos = arg.rfind(mutex_name);
  if (pos == std::string::npos || pos + mutex_name.size() != arg.size()) {
    return false;
  }
  const char before = pos > 0 ? arg[pos - 1] : '\0';
  return before == '.' || before == '>' || before == ':';
}

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

/// One concurrent scope: a parallel_for lambda, or the whole body of a
/// `// analock: parallel_region` function.
struct RegionView {
  const FunctionDef* fn = nullptr;
  std::size_t begin = 0;
  std::size_t end = 0;
  const ParallelRegion* lambda = nullptr;  ///< null for annotated fns
};

std::vector<RegionView> regions_of(const FunctionDef& fn) {
  std::vector<RegionView> regions;
  for (const ParallelRegion& r : fn.parallel_regions) {
    if (r.body_end > r.body_begin) {
      regions.push_back({&fn, r.body_begin, r.body_end, &r});
    }
  }
  if (fn.is_parallel_region) {
    regions.push_back({&fn, fn.body_begin, fn.body_end, nullptr});
  }
  return regions;
}

/// Induction variables of a region: the lambda's parameters, or — for
/// annotated functions — parameters named begin/end by convention.
std::set<std::string> induction_vars(const RegionView& region) {
  std::set<std::string> vars;
  if (region.lambda != nullptr) {
    for (const std::string& p : region.lambda->params) vars.insert(p);
  } else {
    for (const Param& p : region.fn->params) {
      if (p.name == "begin" || p.name == "end") vars.insert(p.name);
    }
  }
  return vars;
}

/// Names declared inside the region body (lane-local by construction).
std::set<std::string> region_locals(const RegionView& region) {
  std::set<std::string> names;
  for (const VarDecl& local : region.fn->locals) {
    if (local.offset >= region.begin && local.offset < region.end) {
      names.insert(local.name);
    }
  }
  return names;
}

/// Induction variables plus everything derived from them inside the
/// region (`for (std::size_t l = begin; ...)` makes `l` a lane index,
/// `const std::size_t base = l * stride` extends the chain).
std::set<std::string> lane_index_names(const RegionView& region) {
  std::set<std::string> lane = induction_vars(region);
  bool grew = true;
  while (grew) {
    grew = false;
    for (const VarDecl& local : region.fn->locals) {
      if (local.offset < region.begin || local.offset >= region.end) continue;
      if (local.init.empty() || lane.count(local.name) > 0) continue;
      for (const std::string& name : lane) {
        if (contains_word(local.init, name)) {
          lane.insert(local.name);
          grew = true;
          break;
        }
      }
    }
  }
  return lane;
}

bool param_type_is_shared(const std::string& type) {
  return type.find('&') != std::string::npos ||
         type.find('*') != std::string::npos ||
         type.find("span") != std::string::npos;
}

/// True when `fn` declares a mutable (non-const, non-guarded) static
/// local; names it through `which`.
bool has_mutable_static(const FunctionDef& fn, const SourceFile& source,
                        std::string& which) {
  for (const VarDecl& local : fn.locals) {
    if (!contains_word(local.type, "static")) continue;
    if (contains_word(local.type, "const") ||
        contains_word(local.type, "constexpr")) {
      continue;
    }
    const std::string_view line =
        source.line_text(source.line_of(local.offset));
    if (line.find("analock:") != std::string_view::npos &&
        line.find("guarded_by") != std::string_view::npos) {
      continue;
    }
    which = local.name;
    return true;
  }
  return false;
}

/// Transitive mutable-static reachability, bounded by `depth`. A
/// `thread_safe` annotation vouches for the whole subtree under it.
bool reaches_mutable_static(const FunctionDef& fn, const ParsedFile& file,
                            const CallGraph& graph, int depth,
                            std::set<const FunctionDef*>& visited,
                            std::string& which) {
  if (depth < 0 || visited.count(&fn) > 0) return false;
  visited.insert(&fn);
  if (has_mutable_static(fn, *file.source, which)) return true;
  for (const CallSite& call : fn.calls) {
    for (const FunctionRef& ref : graph.resolve(call)) {
      const FunctionDef& callee = ref.def();
      if (callee.is_thread_safe) continue;
      if (reaches_mutable_static(callee, *ref.file, graph, depth - 1,
                                 visited, which)) {
        return true;
      }
    }
  }
  return false;
}

}  // namespace

void run_parallel_analysis(const std::vector<ParsedFile>& files,
                           const CallGraph& graph, int max_depth,
                           std::vector<Finding>& out) {
  // class -> member -> mutex across all TUs, for the guarded escape.
  std::map<std::string, std::map<std::string, std::string>> guarded;
  for (const ParsedFile& file : files) {
    for (const AnnotatedMember& m : file.guarded_members) {
      guarded[m.class_name][m.member_name] = m.mutex_name;
    }
  }

  for (const ParsedFile& file : files) {
    const SourceFile& source = *file.source;
    for (const FunctionDef& fn : file.functions) {
      for (const RegionView& region : regions_of(fn)) {
        const std::set<std::string> locals = region_locals(region);
        const std::set<std::string> induction = induction_vars(region);
        const std::set<std::string> lane = lane_index_names(region);

        std::set<std::string> copy_captured;
        std::set<std::string> ref_captured;
        bool default_copy = false;
        if (region.lambda != nullptr) {
          default_copy = region.lambda->capture_default_copy;
          for (const std::string& n : region.lambda->ref_captures) {
            ref_captured.insert(n);
          }
          for (const std::string& n : region.lambda->copy_captures) {
            copy_captured.insert(n);
          }
        }

        // Types visible for the atomic escape: locals and params.
        std::map<std::string, const std::string*> types;
        for (const VarDecl& local : fn.locals) types[local.name] = &local.type;
        for (const Param& p : fn.params) {
          if (!p.name.empty()) types[p.name] = &p.type;
        }

        // ---- parallel-shared-write -------------------------------------
        for (const WriteSite& write : fn.writes) {
          if (write.offset < region.begin || write.offset >= region.end) {
            continue;
          }
          const std::string& head = write.head;
          if (locals.count(head) > 0 || induction.count(head) > 0) continue;

          bool shared = false;
          if (region.lambda != nullptr) {
            if (ref_captured.count(head) > 0) {
              shared = true;
            } else if (copy_captured.count(head) > 0) {
              shared = false;  // lane-local copy
            } else if (default_copy && types.count(head) > 0) {
              shared = false;  // copied outer local/param
            } else {
              // [&] capture, a member via captured this, or a global:
              // one object, every lane.
              shared = true;
            }
          } else {
            // Annotated parallel_region function: params of reference/
            // pointer/span type, members, and globals are shared;
            // by-value scalar params are per-call copies.
            bool is_param = false;
            for (const Param& p : fn.params) {
              if (p.name == head) {
                is_param = true;
                shared = param_type_is_shared(p.type);
                break;
              }
            }
            if (!is_param) shared = true;  // member or global
          }
          if (!shared) continue;

          // Escapes: lane-disjoint subscript, atomic type, guarded
          // member with the lock held.
          bool lane_disjoint = false;
          if (!write.subscript.empty()) {
            for (const std::string& name : lane) {
              if (contains_word(write.subscript, name)) {
                lane_disjoint = true;
                break;
              }
            }
          }
          if (lane_disjoint) continue;
          const auto type_it = types.find(head);
          if (type_it != types.end() &&
              type_it->second->find("atomic") != std::string::npos) {
            continue;
          }
          bool guarded_ok = false;
          const auto class_it = guarded.find(fn.class_name);
          if (class_it != guarded.end()) {
            const auto member_it = class_it->second.find(head);
            if (member_it != class_it->second.end() &&
                held_at(fn, member_it->second, write.offset)) {
              guarded_ok = true;
            }
          }
          if (guarded_ok) continue;

          out.push_back(Finding::at(
              source, write.offset, "parallel-shared-write",
              "'" + head + "' is shared across lanes but written inside a "
              "parallel region without lane-disjoint indexing (by " +
                  (induction.empty() ? std::string("the induction variable")
                                     : "'" + *induction.begin() + "'") +
                  "), a guarded_by lock held, or an atomic type"));
        }

        // ---- parallel-unsafe-call --------------------------------------
        for (const CallSite& call : fn.calls) {
          if (call.offset < region.begin || call.offset >= region.end) {
            continue;
          }
          // Standard-library calls are outside the annotation scheme.
          if (call.callee.rfind("std::", 0) == 0) continue;
          // Calls on region-local receivers stay inside the lane; calls
          // on receivers whose type we cannot see (members, globals)
          // resolve by base name only, which is too weak a signal, so
          // they are skipped rather than misattributed.
          const std::size_t sep =
              std::min(call.callee.find('.'), call.callee.find("->"));
          if (sep != std::string::npos) {
            const std::string receiver = call.callee.substr(0, sep);
            if (locals.count(receiver) > 0 || induction.count(receiver) > 0) {
              continue;
            }
            if (region.lambda == nullptr) {
              bool receiver_is_param = false;
              for (const Param& p : fn.params) {
                if (p.name == receiver) {
                  receiver_is_param = true;
                  break;
                }
              }
              if (receiver_is_param) continue;  // callee's contract
            }
            bool receiver_typed = false;
            const auto recv_type = types.find(receiver);
            if (recv_type != types.end()) receiver_typed = true;
            if (!receiver_typed) continue;
          }
          // Invoking a lane-local functor is not an escape either.
          if (locals.count(call.base_name) > 0) continue;

          const std::vector<FunctionRef> defs = graph.resolve(call);
          if (defs.empty()) continue;  // std::/libc: out of scope
          bool annotated = false;
          for (const FunctionRef& ref : defs) {
            if (ref.def().is_thread_safe) {
              annotated = true;
              break;
            }
          }
          if (annotated) continue;  // annotation vouches for the subtree

          std::string static_name;
          bool touches_static = false;
          for (const FunctionRef& ref : defs) {
            std::set<const FunctionDef*> visited;
            if (reaches_mutable_static(ref.def(), *ref.file, graph,
                                       max_depth, visited, static_name)) {
              touches_static = true;
              break;
            }
          }
          out.push_back(Finding::at(
              source, call.offset, "parallel-unsafe-call",
              touches_static
                  ? "call to " + call.base_name +
                        "() from a parallel region reaches mutable static "
                        "'" + static_name +
                        "' (not guarded_by-annotated); make it lane-local "
                        "or lock it, then annotate the callee "
                        "'// analock: thread_safe'"
                  : "call to " + call.base_name +
                        "() from a parallel region, but the callee is not "
                        "annotated '// analock: thread_safe'"));
        }
      }
    }
  }
}

}  // namespace analock::analysis
