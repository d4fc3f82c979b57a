// analock_e2e: runs one workload of the end-to-end benchmark and prints
// one JSON line with the set-up times, every operation's time, work,
// digest and failed checks, the run conditions and, when traced, the
// per-layer metrics. bench/e2e/run.py builds and runs it and turns that
// line into the benchmark's metrics.
//
//   analock_e2e --workload calibrate|bruteforce|rx_near|verify
//               --seed N --threads N [--seconds S] [--trace FILE]
//               [--corpus DIR] [--smoke]
//
// --seconds runs operations until S seconds have passed; without it the
// driver runs every distinct input once. --smoke shrinks the inputs to
// smoke size and sets up once instead of kSetupReps times.
//
// The shared par::ThreadPool must have exactly --threads workers
// (ANALOCK_THREADS sizes it); the driver refuses to run otherwise.
#include <gnu/libc-version.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "e2e.h"
#include "obs/metrics.h"
#include "par/thread_pool.h"

#ifndef ANALOCK_E2E_FLAGS
#define ANALOCK_E2E_FLAGS "unknown"
#endif

namespace {

using namespace analock;
using namespace analock::e2e;

/// Set-ups per run; setup_s is their median.
constexpr int kSetupReps = 3;

struct Args {
  std::string workload;
  Config config;
  std::size_t threads = 0;
  double seconds = 0.0;  ///< 0: every input once
  bool trace = false;
  std::string trace_path;
};

[[noreturn]] void usage(const std::string& problem) {
  std::fprintf(stderr,
               "analock_e2e: %s\nusage: analock_e2e --workload NAME --seed N "
               "--threads N [--seconds S] [--trace FILE] [--corpus DIR] "
               "[--smoke]\n",
               problem.c_str());
  std::exit(2);
}

std::uint64_t parse_uint(const std::string& flag, const char* text) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || text[0] == '-') {
    usage(flag + " needs a non-negative integer");
  }
  return v;
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args.config.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage(flag + " needs a value");
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.config.seed = parse_uint(flag, value);
    } else if (flag == "--threads") {
      args.threads = parse_uint(flag, value);
    } else if (flag == "--seconds") {
      char* end = nullptr;
      args.seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || !(args.seconds > 0.0)) {
        usage("--seconds needs a positive number");
      }
    } else if (flag == "--trace") {
      args.trace = true;
      args.trace_path = value;
    } else if (flag == "--corpus") {
      args.config.corpus_dir = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (args.workload.empty()) usage("--workload is required");
  if (args.threads == 0) usage("--threads is required");
  return args;
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_strings(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ',';
    out += json_string(items[i]);
  }
  return out + "]";
}

std::string compiler() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

/// Peak resident set of this process in MiB (VmHWM). getrusage's
/// ru_maxrss would also count the image of the forked parent before exec.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// Runs one operation; an exception is a failed operation, not a crash.
OpResult run_op(Workload& workload, std::size_t input, SpanLog* trace) {
  try {
    return workload.run(input, trace);
  } catch (const std::exception& e) {
    OpResult failed;
    failed.errors.push_back(std::string("exception: ") + e.what());
    return failed;
  }
}

struct OpRecord {
  std::size_t input = 0;
  OpResult result;
};

void write_spans(const std::string& path, const SpanLog& log,
                 const prof::SpanProfiler& profiler) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "analock_e2e: cannot write %s\n", path.c_str());
    return;
  }
  for (const SpanLog::Record& r : log.records()) {
    out << "{\"type\":\"span\",\"id\":" << r.id << ",\"parent\":" << r.parent
        << ",\"request\":" << r.request << ",\"name\":" << json_string(r.name)
        << ",\"start_ns\":" << r.start_ns << ",\"end_ns\":" << r.end_ns
        << "}\n";
  }
  // Self-time rollups: the benchmark's spans by name, then the program's
  // spans by call path as prof::SpanProfiler folded them.
  for (const auto& [name, t] : log.totals()) {
    out << "{\"type\":\"rollup\",\"source\":\"benchmark\",\"name\":"
        << json_string(name) << ",\"calls\":" << t.calls
        << ",\"total_ms\":" << json_number(t.total_ns / 1e6)
        << ",\"self_ms\":" << json_number(t.self_ns / 1e6) << "}\n";
  }
  for (const auto& node : profiler.nodes()) {
    out << "{\"type\":\"rollup\",\"source\":\"program\",\"path\":"
        << json_string(node.path) << ",\"name\":" << json_string(node.name)
        << ",\"calls\":" << node.calls
        << ",\"total_ms\":" << json_number(node.total_ns / 1e6)
        << ",\"self_ms\":" << json_number(node.self_ns / 1e6) << "}\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  par::ThreadPool& pool = par::ThreadPool::shared();
  if (pool.size() != args.threads) {
    std::fprintf(stderr,
                 "analock_e2e: the shared pool has %zu threads but --threads "
                 "is %zu (set ANALOCK_THREADS)\n",
                 pool.size(), args.threads);
    return 2;
  }
  // Observability stays off except inside traced operations.
  obs::registry().set_enabled(false);

  std::vector<std::string> setup_errors;
  std::map<std::size_t, std::string> digest_of_input;
  // Inputs are pure functions of (seed, index): every run of one input
  // must give the same digest, whether warmup, timed or traced.
  const auto check_repeat = [&](std::size_t input, OpResult& r) {
    const auto [it, first] = digest_of_input.emplace(input, r.digest);
    if (!first && it->second != r.digest) {
      r.errors.push_back("input " + std::to_string(input) +
                         " gave digest " + r.digest + ", earlier " +
                         it->second);
    }
  };

  // Set-up, repeated: each repetition builds the workload's state
  // (fabrication, calibration, corpus load) and runs one warmup
  // operation on input 0.
  std::vector<double> setup_s;
  std::unique_ptr<Workload> workload;
  const int setup_reps = args.config.smoke ? 1 : kSetupReps;
  for (int rep = 0; rep < setup_reps; ++rep) {
    workload.reset();
    const std::uint64_t t0 = now_ns();
    try {
      workload = make_workload(args.workload, args.config);
    } catch (const std::exception& e) {
      std::printf("{\"workload\":%s,\"fatal\":%s}\n",
                  json_string(args.workload).c_str(),
                  json_string(std::string("set-up failed: ") + e.what())
                      .c_str());
      return 1;
    }
    OpResult warm = run_op(*workload, 0, nullptr);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    check_repeat(0, warm);
    for (const auto& e : warm.errors) setup_errors.push_back("warmup: " + e);
  }

  prof::SpanProfiler profiler;
  SpanLog log;
  TraceSummary summary;
  double untraced_wall_ns = 0.0;
  double untraced_cpu_ns = 0.0;
  if (args.trace) profiler.attach();
  std::vector<OpRecord> ops;
  const std::uint64_t start = now_ns();
  for (std::size_t k = 0;; ++k) {
    const bool done =
        args.seconds > 0.0
            ? k > 0 && static_cast<double>(now_ns() - start) / 1e9 >=
                           args.seconds
            : k >= workload->inputs();
    if (done) break;
    OpRecord rec{k % workload->inputs(), {}};
    rec.result = run_op(*workload, rec.input, nullptr);
    check_repeat(rec.input, rec.result);
    if (args.trace) {
      // Each input runs untraced, then traced; the traced form must give
      // the same digest.
      log.set_request(k);
      OpResult traced = run_op(*workload, rec.input, &log);
      if (traced.digest != rec.result.digest) {
        rec.result.errors.push_back("traced digest " + traced.digest +
                                    " differs from untraced " +
                                    rec.result.digest);
      }
      for (const auto& e : traced.errors) {
        rec.result.errors.push_back("traced: " + e);
      }
      ++summary.ops;
      summary.wall_ns += traced.wall_ns;
      untraced_wall_ns += rec.result.wall_ns;
      untraced_cpu_ns += rec.result.cpu_ns;
    }
    ops.push_back(std::move(rec));
  }

  std::map<std::string, double> layers;
  if (args.trace) {
    prof::SpanProfiler::detach();
    summary.spans = log.totals();
    summary.program = profile_totals(profiler);
    layers = workload->layers(summary);
    layers["trace_overhead_frac"] = summary.wall_ns / untraced_wall_ns - 1.0;
    layers["par.cpu_util"] =
        untraced_cpu_ns / (untraced_wall_ns * static_cast<double>(args.threads));
    write_spans(args.trace_path, log, profiler);
  }

  std::string out = "{\"workload\":" + json_string(args.workload);
  out += ",\"variant\":" + json_string(workload->variant());
  out += ",\"seed\":" + std::to_string(args.config.seed);
  out += ",\"threads\":" + std::to_string(args.threads);
  out += ",\"traced\":" + std::string(args.trace ? "true" : "false");
  out += ",\"conditions\":{\"compiler\":" + json_string(compiler());
  out += ",\"glibc\":" + json_string(gnu_get_libc_version());
  out += ",\"flags\":" + json_string(ANALOCK_E2E_FLAGS);
  out += ",\"nproc\":" + std::to_string(std::thread::hardware_concurrency());
  out += ",\"pool_size\":" + std::to_string(pool.size());
  out += ",\"counter_mode\":\"none (no PMU)\"";
  out += ",\"sizes\":" + workload->sizes_json() + "}";
  out += ",\"setup_s\":[";
  for (std::size_t i = 0; i < setup_s.size(); ++i) {
    out += (i > 0 ? "," : "") + json_number(setup_s[i]);
  }
  out += "],\"peak_rss_mib\":" + json_number(peak_rss_mib());
  out += ",\"setup_errors\":" + json_strings(setup_errors);
  out += ",\"ops\":[";
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const OpResult& r = ops[i].result;
    out += i > 0 ? "," : "";
    out += "{\"input\":" + std::to_string(ops[i].input);
    out += ",\"wall_ms\":" + json_number(r.wall_ns / 1e6);
    out += ",\"cpu_ms\":" + json_number(r.cpu_ns / 1e6);
    out += ",\"work\":" + json_number(r.work);
    out += ",\"digest\":" + json_string(r.digest);
    out += ",\"errors\":" + json_strings(r.errors) + "}";
  }
  out += "],\"layers\":{";
  bool first = true;
  for (const auto& [name, value] : layers) {
    out += (first ? "" : ",") + json_string(name) + ":" + json_number(value);
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return 0;
}
