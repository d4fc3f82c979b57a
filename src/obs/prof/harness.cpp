#include "obs/prof/harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <thread>

#include "obs/jsonl_sink.h"
#include "obs/metrics.h"

// Build provenance baked in by src/obs/CMakeLists.txt; harmless fallbacks
// keep the file compilable outside the CMake tree (tooling, editors).
#ifndef ANALOCK_GIT_SHA
#define ANALOCK_GIT_SHA "unknown"
#endif
#ifndef ANALOCK_BENCH_FLAGS
#define ANALOCK_BENCH_FLAGS ""
#endif

namespace analock::prof {

// ------------------------------------------------------------- statistics

Stats compute_stats(std::vector<double> samples) {
  Stats s;
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  s.n = n;
  s.min = samples.front();
  s.max = samples.back();
  for (const double v : samples) s.mean += v;
  s.mean /= static_cast<double>(n);

  const auto median_of_sorted = [](const std::vector<double>& v) {
    const std::size_t m = v.size();
    return m % 2 == 1 ? v[m / 2] : 0.5 * (v[m / 2 - 1] + v[m / 2]);
  };
  s.median = median_of_sorted(samples);

  std::vector<double> deviations;
  deviations.reserve(n);
  for (const double v : samples) deviations.push_back(std::fabs(v - s.median));
  std::sort(deviations.begin(), deviations.end());
  s.mad = median_of_sorted(deviations);

  // p95 as the nearest-rank quantile (robust for the small n of a bench).
  const auto rank = static_cast<std::size_t>(
      std::ceil(0.95 * static_cast<double>(n))) ;
  s.p95 = samples[std::min(n - 1, rank == 0 ? 0 : rank - 1)];
  return s;
}

// ------------------------------------------------------------ environment

namespace {

std::uint64_t parse_u64(const char* text, std::uint64_t fallback) {
  if (text == nullptr) return fallback;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  return end != text ? static_cast<std::uint64_t>(v) : fallback;
}

BenchEnv parse_bench_env() {
  BenchEnv env;
  if (const char* trials = std::getenv("ANALOCK_BENCH_TRIALS")) {
    const std::uint64_t v = parse_u64(trials, 0);
    if (v > 0) env.trials = v;
  }
  env.reps_override =
      static_cast<int>(parse_u64(std::getenv("ANALOCK_BENCH_REPS"), 0));
  env.warmup =
      static_cast<int>(parse_u64(std::getenv("ANALOCK_BENCH_WARMUP"), 0));
  if (const char* json = std::getenv("ANALOCK_BENCH_JSON")) {
    if (std::string_view(json) == "0") {
      env.json_disabled = true;
    } else if (json[0] != '\0') {
      env.json_override = json;
    }
  }
  return env;
}

/// CPU time the process has used so far, all threads, in ms.
double process_cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::size_t begin = colon + 1;
        while (begin < line.size() && line[begin] == ' ') ++begin;
        return line.substr(begin);
      }
    }
  }
  return "unknown";
}

}  // namespace

const BenchEnv& bench_env() {
  static const BenchEnv env = parse_bench_env();
  return env;
}

std::uint64_t trials_budget(std::uint64_t fallback) {
  return bench_env().trials.value_or(fallback);
}

// ------------------------------------------------------------ JSON output

namespace {

/// Doubles rendered finite (JSON has no NaN/Inf) with enough digits for
/// bench_compare.py to diff losslessly.
void append_double(std::string& out, double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  out += buf;
  // "%.9g" never emits a decimal point for integral values; that is
  // still valid JSON (an integer literal), so nothing more to do.
}

void append_string(std::string& out, std::string_view text) {
  out += '"';
  obs::JsonlSink::append_escaped(out, text);
  out += '"';
}

void append_stats(std::string& out, const Stats& s) {
  out += "{\"n\":";
  out += std::to_string(s.n);
  out += ",\"min\":";
  append_double(out, s.min);
  out += ",\"max\":";
  append_double(out, s.max);
  out += ",\"mean\":";
  append_double(out, s.mean);
  out += ",\"median\":";
  append_double(out, s.median);
  out += ",\"mad\":";
  append_double(out, s.mad);
  out += ",\"p95\":";
  append_double(out, s.p95);
  out += '}';
}

}  // namespace

// ---------------------------------------------------------------- Harness

Harness::Harness(std::string bench_name)
    : bench_name_(std::move(bench_name)) {}

Harness::~Harness() { SpanProfiler::detach(); }

void Harness::add_case(std::string name, std::function<void()> fn,
                       CaseOptions options) {
  cases_.emplace_back(std::move(name), std::move(fn));
  case_options_.push_back(std::move(options));
}

CaseResult Harness::run_case(const std::string& name,
                             const std::function<void()>& fn,
                             const CaseOptions& options) {
  const BenchEnv& env = bench_env();
  CaseResult result;
  result.name = name;
  result.options = options;
  result.warmups = options.warmup >= 0 ? options.warmup : env.warmup;

  for (int i = 0; i < result.warmups; ++i) fn();

  // Only measured reps feed the span profile.
  profiler_.attach();
  double elapsed_ms = 0.0;
  while (true) {
    RepSample sample;
    sample.t_ns = obs::registry().now_ns();
    const double cpu_start_ms = process_cpu_ms();
    fn();
    sample.wall_ms =
        static_cast<double>(obs::registry().now_ns() - sample.t_ns) / 1e6;
    sample.cpu_ms = process_cpu_ms() - cpu_start_ms;
    elapsed_ms += sample.wall_ms;
    result.reps.push_back(std::move(sample));

    const int n = static_cast<int>(result.reps.size());
    if (env.reps_override > 0) {
      if (n >= env.reps_override) break;
    } else {
      if (n >= kMaxReps) break;
      if (n >= options.min_reps && elapsed_ms >= kMinTimeMs) break;
    }
  }
  SpanProfiler::detach();

  std::vector<double> wall;
  std::vector<double> cpu;
  wall.reserve(result.reps.size());
  cpu.reserve(result.reps.size());
  for (const RepSample& rep : result.reps) {
    wall.push_back(rep.wall_ms);
    cpu.push_back(rep.cpu_ms);
  }
  result.wall_ms = compute_stats(std::move(wall));
  result.cpu_ms = compute_stats(std::move(cpu));
  return result;
}

int Harness::run() {
  obs::registry().set_enabled(true);
  results_.clear();
  results_.reserve(cases_.size());
  for (std::size_t i = 0; i < cases_.size(); ++i) {
    results_.push_back(
        run_case(cases_[i].first, cases_[i].second, case_options_[i]));
  }
  print_case_table();
  profiler_.print_tree(stdout);
  write_artifacts();
  return 0;
}

void Harness::print_case_table() const {
  if (results_.empty()) return;
  std::printf("\n---------------------------- benchmark cases "
              "----------------------------\n");
  std::printf("%-28s %5s %12s %10s %12s %12s\n", "case", "reps",
              "median[ms]", "mad[ms]", "p95[ms]", "min[ms]");
  for (const CaseResult& r : results_) {
    std::printf("%-28s %5llu %12.3f %10.4f %12.3f %12.3f\n", r.name.c_str(),
                static_cast<unsigned long long>(r.wall_ms.n),
                r.wall_ms.median, r.wall_ms.mad, r.wall_ms.p95,
                r.wall_ms.min);
    if (r.options.ops_per_rep > 1.0 && r.wall_ms.median > 0.0) {
      std::printf("%-28s       %12.1f ns/op over %.0f ops/rep\n", "",
                  r.wall_ms.median * 1e6 / r.options.ops_per_rep,
                  r.options.ops_per_rep);
    }
  }
  std::printf("--------------------------------------------------------------"
              "-----------\n");
}

std::string Harness::json() const {
  const BenchEnv& env = bench_env();
  std::string out;
  out.reserve(4096);
  out += "{\"schema\":\"analock-bench\",\"schema_version\":2,\"bench\":";
  append_string(out, bench_name_);

  // Environment capture: enough provenance to interpret a trajectory
  // point years later.
  out += ",\"env\":{\"git_sha\":";
  append_string(out, ANALOCK_GIT_SHA);
  out += ",\"compiler\":";
  append_string(out, __VERSION__);
  out += ",\"flags\":";
  append_string(out, ANALOCK_BENCH_FLAGS);
  out += ",\"cpu\":";
  append_string(out, cpu_model());
  out += ",\"trials_budget\":";
  out += env.trials.has_value() ? std::to_string(*env.trials) : "null";
  out += ",\"reps_override\":";
  out += std::to_string(env.reps_override);
  out += ",\"warmup\":";
  out += std::to_string(env.warmup);
  out += ",\"min_time_ms\":";
  append_double(out, kMinTimeMs);
  out += ",\"max_reps\":";
  out += std::to_string(kMaxReps);
  // Worker-pool size request and host core count: a batched case's time
  // depends on both.
  out += ",\"analock_threads\":";
  if (const char* threads = std::getenv("ANALOCK_THREADS")) {
    append_string(out, threads);
  } else {
    out += "null";
  }
  out += ",\"nproc\":";
  out += std::to_string(std::thread::hardware_concurrency());
  out += '}';

  out += ",\"cases\":[";
  for (std::size_t c = 0; c < results_.size(); ++c) {
    const CaseResult& r = results_[c];
    if (c != 0) out += ',';
    out += "{\"name\":";
    append_string(out, r.name);
    out += ",\"warmups\":";
    out += std::to_string(r.warmups);
    out += ",\"ops_per_rep\":";
    append_double(out, r.options.ops_per_rep);
    out += ",\"wall_ms\":";
    append_stats(out, r.wall_ms);
    out += ",\"cpu_ms\":";
    append_stats(out, r.cpu_ms);

    if (!r.options.notes.empty()) {
      out += ",\"notes\":{";
      for (std::size_t i = 0; i < r.options.notes.size(); ++i) {
        if (i != 0) out += ',';
        append_string(out, r.options.notes[i].first);
        out += ':';
        append_double(out, r.options.notes[i].second);
      }
      out += '}';
    }

    out += ",\"reps\":[";
    for (std::size_t i = 0; i < r.reps.size(); ++i) {
      const RepSample& rep = r.reps[i];
      if (i != 0) out += ',';
      out += "{\"t_ns\":";
      out += std::to_string(rep.t_ns);
      out += ",\"wall_ms\":";
      append_double(out, rep.wall_ms);
      out += ",\"cpu_ms\":";
      append_double(out, rep.cpu_ms);
      out += '}';
    }
    out += "]}";
  }
  out += ']';

  out += ",\"profile\":{\"spans\":[";
  const auto nodes = profiler_.nodes();
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const SpanProfiler::Node& node = nodes[i];
    if (i != 0) out += ',';
    out += "{\"path\":";
    append_string(out, node.path);
    out += ",\"name\":";
    append_string(out, node.name);
    out += ",\"depth\":";
    out += std::to_string(node.depth);
    out += ",\"calls\":";
    out += std::to_string(node.calls);
    out += ",\"total_ms\":";
    append_double(out, node.total_ns / 1e6);
    out += ",\"self_ms\":";
    append_double(out, node.self_ns / 1e6);
    out += '}';
  }
  out += "]}}";
  return out;
}

std::string Harness::folded() const { return profiler_.folded_stacks(); }

void Harness::write_artifacts() const {
  const BenchEnv& env = bench_env();
  if (env.json_disabled) return;

  const std::string json_path = env.json_override.empty()
                                    ? "BENCH_" + bench_name_ + ".json"
                                    : env.json_override;
  const std::string folded_path = env.json_override.empty()
                                      ? bench_name_ + ".folded"
                                      : env.json_override + ".folded";

  std::ofstream json_file(json_path, std::ios::trunc);
  if (json_file) {
    json_file << json() << '\n';
    std::printf("benchmark trajectory artifact: %s\n", json_path.c_str());
  } else {
    std::fprintf(stderr, "warning: cannot write %s\n", json_path.c_str());
  }

  std::ofstream folded_file(folded_path, std::ios::trunc);
  if (folded_file) {
    folded_file << folded();
    std::printf("folded-stacks artifact: %s\n", folded_path.c_str());
  }
}

}  // namespace analock::prof
