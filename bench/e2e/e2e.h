// End-to-end benchmark driver: shared types of the four closed-loop
// workloads (calibrate, bruteforce, rx_near, verify).
//
// Every workload is a closed loop with one caller, the driver's main
// thread, which issues the next operation only after the previous one
// returns. An operation is indexed by its input (chip, attack run,
// receiver batch or analyzer pass); input i is a pure function of the
// seed and i, so the same (seed, i) always gives the same digest.
//
// Untraced operations call only top-level public APIs with observability
// off. A traced operation either decomposes the same work through the
// layers' public functions, timed with this benchmark's own spans
// (rx_near, verify), or runs the same top-level call with a
// prof::SpanProfiler attached (calibrate, bruteforce). No span is added
// inside src/.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "obs/prof/span_profile.h"

namespace analock::e2e {

/// Default workload seed, shared with the paper-experiment benches.
inline constexpr std::uint64_t kBenchSeed = 20260704;

struct Config {
  std::uint64_t seed = kBenchSeed;
  std::string corpus_dir;  ///< verify only: extracted pinned corpus
  bool smoke = false;      ///< smallest sizes (ctest e2e_smoke)
};

/// Hash (analysis::fnv1a64) over the exact bit patterns of the values
/// added, in order.
class Digest {
 public:
  void add(std::uint64_t v);
  void add(double v);
  void add(std::string_view s);
  [[nodiscard]] std::string hex() const;

 private:
  std::string bytes_;
};

/// In-memory span recorder for the benchmark's own spans. Single
/// threaded: every span opens and closes on the driver's main thread.
/// Records are kept until the run ends and then written as JSONL.
class SpanLog {
 public:
  struct Record {
    std::uint32_t id = 0;
    std::uint32_t parent = 0;  ///< 0 = root
    std::uint64_t request = 0;  ///< operation index
    const char* name = nullptr;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
  };

  /// Time attributed to one span name over the whole run.
  struct Total {
    std::uint64_t calls = 0;
    double total_ns = 0.0;
    double self_ns = 0.0;  ///< total minus the time of its child spans
  };

  /// RAII span: opens under the innermost open span.
  class Scope {
   public:
    Scope(SpanLog* log, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
    std::size_t index_ = 0;
  };

  void set_request(std::uint64_t request) { request_ = request; }
  [[nodiscard]] const std::vector<Record>& records() const { return records_; }
  [[nodiscard]] std::map<std::string, Total> totals() const;

 private:
  std::uint64_t request_ = 0;
  std::vector<Record> records_;
  std::vector<std::size_t> open_;  ///< indices into records_
};

/// Program spans folded by prof::SpanProfiler, summed by span name over
/// every call path.
using ProfileTotals = std::map<std::string, SpanLog::Total>;
[[nodiscard]] ProfileTotals profile_totals(const prof::SpanProfiler& profiler);

/// What the traced operations of one run recorded.
struct TraceSummary {
  std::size_t ops = 0;
  double wall_ns = 0.0;  ///< summed wall time of the traced operations
  std::map<std::string, SpanLog::Total> spans;  ///< benchmark spans
  ProfileTotals program;                        ///< program spans
};

/// Outcome of one operation.
struct OpResult {
  std::string digest;
  double work = 0.0;  ///< work units done (measurements, trials, keys, TUs)
  double wall_ns = 0.0;  ///< the operation proper, without its checks
  double cpu_ns = 0.0;   ///< process CPU time over the same interval
  std::vector<std::string> errors;  ///< failed checks; empty when correct
};

/// Brackets the operation proper, not its checks: measures its wall and
/// process CPU time into `result` and, when traced, opens the operation's
/// span and turns observability on for exactly that interval.
class OpScope {
 public:
  OpScope(SpanLog* trace, const char* name, OpResult& result);
  ~OpScope();
  OpScope(const OpScope&) = delete;
  OpScope& operator=(const OpScope&) = delete;

 private:
  SpanLog::Scope span_;
  OpResult& result_;
  bool traced_;
  std::uint64_t wall0_ = 0;
  std::uint64_t cpu0_ = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Distinct inputs; operation k runs input k % inputs().
  [[nodiscard]] virtual std::size_t inputs() const = 0;
  /// Names the workload and its sizes; golden digests are keyed by it.
  [[nodiscard]] virtual std::string variant() const = 0;
  /// Workload sizes for the run conditions, as a JSON object.
  [[nodiscard]] virtual std::string sizes_json() const = 0;

  /// Runs one operation. With `trace` null only top-level public APIs
  /// run; otherwise the traced form records into `trace`.
  virtual OpResult run(std::size_t input, SpanLog* trace) = 0;

  /// Per-layer metrics of the traced operations (names as in the
  /// benchmark's per_layer list, values per operation unless the name
  /// says otherwise).
  [[nodiscard]] virtual std::map<std::string, double> layers(
      const TraceSummary& trace) const = 0;
};

/// Builds a workload (its set-up) or throws std::invalid_argument.
std::unique_ptr<Workload> make_workload(std::string_view name,
                                        const Config& config);

std::unique_ptr<Workload> make_calibrate(const Config& config);
std::unique_ptr<Workload> make_bruteforce(const Config& config);
std::unique_ptr<Workload> make_rx_near(const Config& config);
std::unique_ptr<Workload> make_verify(const Config& config);

/// Monotonic nanoseconds (obs::SteadyClock) for span and operation timing.
[[nodiscard]] std::uint64_t now_ns();

/// CPU time of the whole process (every thread), in nanoseconds.
[[nodiscard]] std::uint64_t process_cpu_ns();

/// Total time of `name` in `totals` (0 when absent), in milliseconds.
[[nodiscard]] double total_ms(const std::map<std::string, SpanLog::Total>& totals,
                              const std::string& name);
/// Self time of `name` in `totals` (0 when absent), in milliseconds.
[[nodiscard]] double self_ms(const std::map<std::string, SpanLog::Total>& totals,
                             const std::string& name);
/// Calls of `name` in `totals` (0 when absent).
[[nodiscard]] double calls(const std::map<std::string, SpanLog::Total>& totals,
                           const std::string& name);

/// Distinct mode signatures (key bits 58-63) among `bits`.
[[nodiscard]] std::size_t signature_groups(
    const std::vector<std::uint64_t>& bits);

}  // namespace analock::e2e
