// Span-profile aggregation: folds the live ANALOCK_SPAN stream into a
// per-run call tree with total/self time and call counts per span path.
//
//   prof::SpanProfiler profiler;
//   profiler.attach();                  // TraceSpan now reports to it
//   workload();                         // any code using ANALOCK_SPAN
//   prof::SpanProfiler::detach();
//   profiler.print_tree(stdout);        // human call-tree table
//   std::string folded = profiler.folded_stacks();  // flamegraph input
//
// Attribution model: every span exit charges its duration to the node
// addressed by the full stack of open span names
// ("calib.run;calib.step06;eval.snr_modulator"). A node's self time is
// its total minus the totals of its direct children, so the tree answers
// "where did the time actually go" rather than "what was on the stack".
//
// The profiler aggregates across threads: frames live in thread-local
// stacks (no locking on the enter path), and each exit folds into the
// shared tree under one mutex.
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace analock::prof {

class SpanProfiler {
 public:
  SpanProfiler() = default;
  ~SpanProfiler();

  SpanProfiler(const SpanProfiler&) = delete;
  SpanProfiler& operator=(const SpanProfiler&) = delete;

  /// Makes this profiler the process-wide receiver of TraceSpan
  /// enter/exit callbacks. Only one profiler is attached at a time;
  /// attaching replaces the previous one.
  void attach();
  /// Detaches whatever profiler is attached (no-op when none is).
  static void detach();
  [[nodiscard]] static SpanProfiler* current();

  /// One aggregated call-tree node, addressed by its folded path.
  struct Node {
    std::string path;  // "root;child;leaf" (span names joined by ';')
    std::string name;  // leaf span name
    int depth = 0;     // 0 = root spans
    std::uint64_t calls = 0;
    double total_ns = 0.0;
    double self_ns = 0.0;
  };

  /// Snapshot of the tree, sorted by path (parents precede children).
  [[nodiscard]] std::vector<Node> nodes() const;

  /// Folded-stacks text (one "path self_microseconds" line per node),
  /// directly consumable by flamegraph.pl / speedscope / inferno.
  [[nodiscard]] std::string folded_stacks() const;

  /// Human call-tree table: indented span names with calls and
  /// total/self time.
  void print_tree(std::FILE* out) const;

  /// TraceSpan integration points — called from obs::TraceSpan only.
  /// on_enter returns true when the span was recorded onto the calling
  /// thread's frame stack (and must be paired with on_exit).
  static bool on_enter(const char* name);
  static void on_exit(const char* name, std::uint64_t dur_ns);

 private:
  void record(const std::string& path, const char* name, int depth,
              double total_ns, double self_ns);

  mutable std::mutex mu_;
  // analock: guarded_by(mu_)
  std::map<std::string, Node> tree_;
};

}  // namespace analock::prof
