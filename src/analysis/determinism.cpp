// Determinism checks: every stochastic element derives from the seeded
// sim::Rng streams, and nothing observable depends on hash order or the
// wall clock, so a run replays bit-exactly from its seed.
//
// fp-unordered-accum: a floating-point accumulator updated inside a
// range-for over an unordered container sums in hash-iteration order,
// which varies run to run (and across libstdc++ versions) — the seeded
// reproducibility contract of the calibration/evaluation pipeline
// breaks silently. std::map/std::set, or sorting before accumulating,
// restore a stable order.
//
// unordered-iter: any other range-for over an unordered container. The
// iteration is the hazard; declaring or probing the container is not.
// A loop that accumulates floating point is reported only as
// fp-unordered-accum (one hazard, one finding).
//
// rng-source: a std <random> engine default-constructed or seeded from
// anything that does not mention a sim::Rng draw (rng/fork/seed), an
// engine or random_device temporary, a std::random_device local, and
// the libc sources rand(), srand() and time(nullptr). A random_device
// whose only use seeds an engine already reported stays silent.
//
// determinism-clock: a steady_clock/system_clock/high_resolution_clock
// ::now() read. Time comes from an injected obs::Clock; the bodies of
// now_ns, the one obs::Clock virtual, are the sanctioned reads.
#include <algorithm>
#include <cctype>
#include <set>
#include <string>
#include <utility>

#include "analysis/analyses.h"
#include "analysis/lexer.h"

namespace analock::analysis {

namespace {

const char* const kUnorderedTypes[] = {
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset",
};

const char* const kStdEngines[] = {
    "mt19937",     "mt19937_64",    "minstd_rand", "minstd_rand0",
    "default_random_engine",        "knuth_b",     "ranlux24",
    "ranlux48",    "ranlux24_base", "ranlux48_base",
};

const char* const kAmbientClocks[] = {
    "steady_clock::now", "system_clock::now", "high_resolution_clock::now",
};

bool type_is_unordered(const std::string& type) {
  for (const char* t : kUnorderedTypes) {
    if (type.find(t) != std::string::npos) return true;
  }
  return false;
}

bool type_is_float(const std::string& type) {
  return type.find("double") != std::string::npos ||
         type.find("float") != std::string::npos;
}

bool type_is_std_engine(const std::string& type) {
  if (type.find("sim::Rng") != std::string::npos) return false;
  for (const char* e : kStdEngines) {
    if (contains_word(type, e)) return true;
  }
  return false;
}

/// Seed expressions derived from the simulation's seeded streams.
bool seed_is_sim_derived(const std::string& init) {
  return contains_word(init, "rng") || init.find("Rng") != std::string::npos ||
         init.find("fork") != std::string::npos ||
         contains_word(init, "seed");
}

/// rand()/srand(), and time() called for its value rather than to fill
/// an out-parameter.
const char* ambient_call_message(const CallSite& call) {
  const std::string& c = call.callee;
  if (c == "rand" || c == "std::rand" || c == "srand" || c == "std::srand") {
    return "rand()/srand() draw from libc's hidden global state; draw "
           "from a seeded sim::Rng stream";
  }
  if ((c == "time" || c == "std::time") &&
      (call.args.empty() || call.args[0] == "nullptr" ||
       call.args[0] == "NULL" || call.args[0] == "0")) {
    return "time() is wall-clock seed material; seeds must be explicit "
           "and derive from a named sim::Rng stream";
  }
  return nullptr;
}

bool is_ambient_clock_read(const CallSite& call) {
  const std::string_view callee = call.callee;
  for (const std::string_view clock : kAmbientClocks) {
    if (callee.size() < clock.size()) continue;
    const std::size_t at = callee.size() - clock.size();
    if (callee.substr(at) == clock && whole_word_at(callee, at, clock.size())) {
      return true;
    }
  }
  return false;
}

struct Temporary {
  std::size_t offset = 0;
  std::string_view name;  ///< a static type name
};

/// `Engine{}` / `Engine()` and `random_device{}` / `random_device()`
/// temporaries in `code`: ambient sources no declaration carries.
std::vector<Temporary> rng_temporaries(std::string_view code) {
  std::vector<Temporary> out;
  const auto skip_space = [code](std::size_t k) {
    while (k < code.size() &&
           std::isspace(static_cast<unsigned char>(code[k])) != 0) {
      ++k;
    }
    return k;
  };
  const auto scan = [&](std::string_view name) {
    std::size_t pos = 0;
    while ((pos = code.find(name, pos)) != std::string_view::npos) {
      const std::size_t at = pos;
      pos += name.size();
      if (!whole_word_at(code, at, name.size())) continue;
      const std::size_t open = skip_space(pos);
      if (open >= code.size() || (code[open] != '{' && code[open] != '(')) {
        continue;
      }
      const std::size_t close = skip_space(open + 1);
      const char closer = code[open] == '{' ? '}' : ')';
      if (close < code.size() && code[close] == closer) {
        out.push_back({at, name});
      }
    }
  };
  for (const char* engine : kStdEngines) scan(engine);
  scan("random_device");
  return out;
}

using Range = std::pair<std::size_t, std::size_t>;

bool inside_any(const std::vector<Range>& ranges, std::size_t offset) {
  return std::any_of(ranges.begin(), ranges.end(), [offset](const Range& r) {
    return offset >= r.first && offset < r.second;
  });
}

}  // namespace

void run_determinism_analysis(const std::vector<ParsedFile>& files,
                              std::vector<Finding>& out) {
  for (const ParsedFile& file : files) {
    const SourceFile& source = *file.source;
    const std::vector<Temporary> temporaries =
        rng_temporaries(source.stripped);
    for (const FunctionDef& fn : file.functions) {
      const auto report = [&](std::size_t offset, const char* rule,
                              std::string message) {
        out.push_back(Finding::at(source, offset, rule, std::move(message)));
      };

      // Names of unordered containers and float accumulators in scope.
      std::set<std::string> unordered_names;
      std::set<std::string> float_names;
      for (const Param& p : fn.params) {
        if (p.name.empty()) continue;
        if (type_is_unordered(p.type)) unordered_names.insert(p.name);
        if (type_is_float(p.type)) float_names.insert(p.name);
      }
      for (const VarDecl& local : fn.locals) {
        if (type_is_unordered(local.type)) unordered_names.insert(local.name);
        if (type_is_float(local.type)) float_names.insert(local.name);
      }

      for (const LoopSite& loop : fn.loops) {
        if (!loop.range_for) continue;
        const auto container = std::find_if(
            unordered_names.begin(), unordered_names.end(),
            [&loop](const std::string& name) {
              return contains_word(loop.bound_text, name);
            });
        if (container == unordered_names.end()) continue;
        bool accumulates = false;
        for (const CompoundAssign& assign : fn.compound_assigns) {
          if (assign.offset < loop.body_begin ||
              assign.offset >= loop.body_end) {
            continue;
          }
          const bool float_acc =
              float_names.count(assign.lhs) > 0 ||
              assign.lhs.find("sum") != std::string::npos ||
              assign.lhs.find("total") != std::string::npos ||
              assign.lhs.find("acc") != std::string::npos;
          if (!float_acc) continue;
          accumulates = true;
          report(assign.offset, "fp-unordered-accum",
                 "floating-point accumulator '" + assign.lhs +
                     "' updated while iterating an unordered "
                     "container; the sum depends on hash iteration "
                     "order — use std::map/std::set or sort first");
        }
        if (accumulates) continue;
        report(loop.offset, "unordered-iter",
               "range-for over unordered container '" + *container +
                   "' visits elements in hash order, which varies run to "
                   "run — iterate a std::map/std::set or sort the keys "
                   "first");
      }

      // Engines not seeded from sim::Rng, and the extents of their
      // initializers: an ambient source consumed there is the same
      // hazard.
      std::vector<Range> reported_inits;
      for (const VarDecl& local : fn.locals) {
        if (!type_is_std_engine(local.type)) continue;
        if (!local.init.empty() && seed_is_sim_derived(local.init)) {
          continue;
        }
        report(local.offset, "rng-source",
               "std <random> engine '" + local.name + "' is " +
                   (local.init.empty()
                        ? std::string("default-seeded")
                        : std::string("seeded from a non-sim::Rng "
                                      "source")) +
                   "; derive the seed from a named sim::Rng stream "
                   "(Rng::fork)");
        const std::size_t at =
            local.init.empty()
                ? std::string::npos
                : source.stripped.find(local.init, local.offset);
        if (at != std::string::npos) {
          reported_inits.emplace_back(at, at + local.init.size());
        }
      }

      for (const VarDecl& local : fn.locals) {
        if (!contains_word(local.type, "random_device")) continue;
        std::size_t uses = 0;
        std::size_t seeds = 0;
        for (const MemberAccess& use : fn.accesses) {
          if (use.name != local.name) continue;
          ++uses;
          if (inside_any(reported_inits, use.offset)) ++seeds;
        }
        if (uses > 0 && seeds == uses) continue;
        report(local.offset, "rng-source",
               "std::random_device '" + local.name +
                   "' is ambient entropy; fork a seeded sim::Rng stream "
                   "instead");
      }

      for (const Temporary& temp : temporaries) {
        if (temp.offset < fn.body_begin || temp.offset >= fn.body_end ||
            inside_any(reported_inits, temp.offset)) {
          continue;
        }
        report(temp.offset, "rng-source",
               "default-constructed std::" + std::string(temp.name) +
                   " temporary is ambient entropy; derive the seed from a "
                   "named sim::Rng stream (Rng::fork)");
      }

      for (const CallSite& call : fn.calls) {
        if (const char* message = ambient_call_message(call)) {
          report(call.offset, "rng-source", message);
        } else if (fn.base_name != "now_ns" && is_ambient_clock_read(call)) {
          report(call.offset, "determinism-clock",
                 call.callee +
                     "() reads the ambient clock; inject an obs::Clock so "
                     "runs replay bit-exactly");
        }
      }
    }
  }
}

}  // namespace analock::analysis
