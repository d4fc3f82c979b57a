// Scoped RAII trace spans and point events.
//
//   double LockEvaluator::snr_modulator_db(...) {
//     ANALOCK_SPAN("eval.snr_modulator");   // timed + JSONL span event
//     ...
//   }
//
//   void FftPlan::run(...) const {
//     ANALOCK_SPAN_QUIET("dsp.fft");        // timed, no per-call event
//     ...
//   }
//
// Spans nest: a thread-local depth tracks the current stack position and
// is recorded on every emitted record. Each span feeds the registry's
// span histogram (duration in milliseconds) and, unless QUIET, emits one
// "span" event carrying its begin timestamp and duration. When the
// registry is disabled, constructing a span is a single relaxed load.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>

#include "obs/metrics.h"

namespace analock::obs {

class TraceSpan {
 public:
  explicit TraceSpan(const char* name, bool emit_event = true);
  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Nesting depth of the calling thread (0 = no open span).
  [[nodiscard]] static int current_depth();

 private:
  const char* name_ = nullptr;
  std::uint64_t begin_ns_ = 0;
  int depth_ = 0;
  bool active_ = false;
  bool emit_event_ = true;
  bool profiled_ = false;  // span was reported to an attached SpanProfiler
};

/// Emits one point event (type "event") with attributes, if enabled and a
/// sink is attached. The depth of the surrounding span stack is recorded.
void event(std::string_view name, std::initializer_list<Attr> attrs);

/// Best-so-far convergence tracker for attack loops: every time `score`
/// improves, emits an "attack.convergence" event with the query count —
/// exactly the (query, best-score) curve the attack literature plots.
class Convergence {
 public:
  /// `attack` names the algorithm; `metric` names the score axis.
  explicit Convergence(std::string attack, std::string metric = "snr_db");

  /// Returns true if `score` improved on the best so far.
  bool observe(std::uint64_t query, double score);

  [[nodiscard]] double best() const { return best_; }

 private:
  std::string attack_;
  std::string metric_;
  double best_ = -1.0e300;
};

}  // namespace analock::obs

#define ANALOCK_OBS_CONCAT2(a, b) a##b
#define ANALOCK_OBS_CONCAT(a, b) ANALOCK_OBS_CONCAT2(a, b)

/// Timed scope that also emits a per-call "span" event to the sink.
#define ANALOCK_SPAN(name)                                       \
  const ::analock::obs::TraceSpan ANALOCK_OBS_CONCAT(            \
      analock_obs_span_, __COUNTER__)(name)

/// Timed scope without per-call events (hot paths: histograms only).
#define ANALOCK_SPAN_QUIET(name)                                 \
  const ::analock::obs::TraceSpan ANALOCK_OBS_CONCAT(            \
      analock_obs_span_, __COUNTER__)(name, false)
