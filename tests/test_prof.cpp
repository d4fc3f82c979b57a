// Tests for the profiling layer (src/obs/prof/): harness statistics on
// known inputs, span-tree folding, and the BENCH_*.json document
// structure.
#include <gtest/gtest.h>

#include <cstdlib>
#include <ctime>
#include <string>
#include <vector>

#include "obs/obs.h"
#include "obs/prof/harness.h"

namespace {

using namespace analock;

// The harness reads its environment once (prof::bench_env is a
// singleton), so pin every knob before the first test touches it:
// deterministic rep counts and no artifacts dropped into the test cwd.
const bool kEnvPinned = [] {
  setenv("ANALOCK_BENCH_JSON", "0", 1);
  setenv("ANALOCK_BENCH_REPS", "3", 1);
  setenv("ANALOCK_BENCH_WARMUP", "0", 1);
  setenv("ANALOCK_BENCH_TRIALS", "2", 1);
  return true;
}();

// ----------------------------------------------------------- statistics

TEST(ProfStats, KnownSamplesOddCount) {
  const prof::Stats s = prof::compute_stats({4.0, 1.0, 100.0, 3.0, 2.0});
  EXPECT_EQ(s.n, 5u);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_DOUBLE_EQ(s.mean, 22.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  // deviations from 3: {2,1,97,0,1} -> sorted {0,1,1,2,97} -> MAD 1.
  EXPECT_DOUBLE_EQ(s.mad, 1.0);
  // nearest-rank p95 of 5 samples is the maximum.
  EXPECT_DOUBLE_EQ(s.p95, 100.0);
}

TEST(ProfStats, KnownSamplesEvenCount) {
  const prof::Stats s = prof::compute_stats({1.0, 2.0, 3.0, 4.0});
  EXPECT_EQ(s.n, 4u);
  EXPECT_DOUBLE_EQ(s.median, 2.5);
  // deviations from 2.5: {1.5,0.5,0.5,1.5} -> MAD (0.5+1.5)/2 = 1.
  EXPECT_DOUBLE_EQ(s.mad, 1.0);
  EXPECT_DOUBLE_EQ(s.p95, 4.0);
}

TEST(ProfStats, EmptyAndSingleton) {
  EXPECT_EQ(prof::compute_stats({}).n, 0u);
  const prof::Stats s = prof::compute_stats({7.5});
  EXPECT_EQ(s.n, 1u);
  EXPECT_DOUBLE_EQ(s.median, 7.5);
  EXPECT_DOUBLE_EQ(s.mad, 0.0);
  EXPECT_DOUBLE_EQ(s.p95, 7.5);
}

// ----------------------------------------------------------- environment

TEST(ProfEnv, TrialsBudgetHonorsPinnedEnvironment) {
  ASSERT_TRUE(kEnvPinned);
  EXPECT_EQ(prof::trials_budget(100), 2u);
  EXPECT_EQ(prof::trials_budget(7), 2u);
  EXPECT_EQ(prof::bench_env().reps_override, 3);
  EXPECT_TRUE(prof::bench_env().json_disabled);
}

// ---------------------------------------------------------- span folding

class ProfSpanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::Registry& reg = obs::registry();
    reg.set_enabled(true);
    reg.set_clock(&clock_);
  }

  void TearDown() override {
    prof::SpanProfiler::detach();
    obs::Registry& reg = obs::registry();
    reg.set_clock(nullptr);
    reg.set_enabled(false);
  }

  obs::FakeClock clock_{100};  // each reading advances 100 ns
};

TEST_F(ProfSpanTest, FoldsNestedSpansWithSelfVsTotal) {
  prof::SpanProfiler profiler;
  profiler.attach();
  ASSERT_EQ(prof::SpanProfiler::current(), &profiler);

  for (int i = 0; i < 2; ++i) {
    ANALOCK_SPAN("prof.outer");
    clock_.advance_ns(1000);
    {
      ANALOCK_SPAN("prof.inner");
      clock_.advance_ns(5000);
    }
    clock_.advance_ns(1000);
  }
  prof::SpanProfiler::detach();
  EXPECT_EQ(prof::SpanProfiler::current(), nullptr);

  const auto nodes = profiler.nodes();
  ASSERT_EQ(nodes.size(), 2u);
  const auto& outer = nodes[0];
  const auto& inner = nodes[1];
  EXPECT_EQ(outer.path, "prof.outer");
  EXPECT_EQ(outer.name, "prof.outer");
  EXPECT_EQ(outer.depth, 0);
  EXPECT_EQ(outer.calls, 2u);
  EXPECT_EQ(inner.path, "prof.outer;prof.inner");
  EXPECT_EQ(inner.name, "prof.inner");
  EXPECT_EQ(inner.depth, 1);
  EXPECT_EQ(inner.calls, 2u);

  // A leaf's self time is its total; the parent's self time excludes the
  // child's total but keeps its own two 1000 ns phases (plus the fixed
  // clock readings, which the FakeClock auto-tick makes deterministic).
  EXPECT_DOUBLE_EQ(inner.self_ns, inner.total_ns);
  EXPECT_GT(inner.total_ns, 2 * 5000.0 - 1.0);
  EXPECT_GT(outer.total_ns, inner.total_ns);
  EXPECT_DOUBLE_EQ(outer.self_ns, outer.total_ns - inner.total_ns);

  const std::string folded = profiler.folded_stacks();
  EXPECT_NE(folded.find("prof.outer "), std::string::npos);
  EXPECT_NE(folded.find("prof.outer;prof.inner "), std::string::npos);
}

TEST_F(ProfSpanTest, DetachedProfilerRecordsNothing) {
  prof::SpanProfiler profiler;
  {
    ANALOCK_SPAN("prof.unattached");
    clock_.advance_ns(500);
  }
  EXPECT_TRUE(profiler.nodes().empty());
  EXPECT_TRUE(profiler.folded_stacks().empty());
}

// --------------------------------------------------------------- harness

class ProfHarnessTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(kEnvPinned);
    obs::Registry& reg = obs::registry();
    reg.set_enabled(true);
    reg.set_clock(&clock_);
  }

  void TearDown() override {
    obs::Registry& reg = obs::registry();
    reg.set_clock(nullptr);
    reg.set_enabled(false);
  }

  // 1 ms per clock reading: a rep's wall delta is exactly one tick.
  obs::FakeClock clock_{1000000};
};

TEST_F(ProfHarnessTest, RunsPinnedRepsWithDeterministicStats) {
  prof::Harness h("test_prof_harness");
  int calls = 0;
  prof::CaseOptions opts;
  opts.ops_per_rep = 10.0;
  h.add_case("counted", [&calls] { ++calls; }, opts);
  EXPECT_EQ(h.run(), 0);

  // ANALOCK_BENCH_REPS=3 pins the adaptive loop to exactly three reps.
  EXPECT_EQ(calls, 3);
  ASSERT_EQ(h.results().size(), 1u);
  const prof::CaseResult& r = h.results()[0];
  EXPECT_EQ(r.name, "counted");
  EXPECT_EQ(r.warmups, 0);
  ASSERT_EQ(r.reps.size(), 3u);
  for (std::size_t i = 1; i < r.reps.size(); ++i) {
    EXPECT_GT(r.reps[i].t_ns, r.reps[i - 1].t_ns);
  }
  // Each rep spans two clock readings, one at each end = one 1 ms tick.
  EXPECT_DOUBLE_EQ(r.wall_ms.median, 1.0);
  EXPECT_DOUBLE_EQ(r.wall_ms.mad, 0.0);
  EXPECT_EQ(r.wall_ms.n, 3u);
}

TEST_F(ProfHarnessTest, RecordsProcessCpuTimePerRep) {
  // The registry clock is fake (1 ms per reading); CPU time is the
  // process's own, so a rep that burns at least 2 ms of CPU must say so.
  prof::Harness h("test_prof_cpu");
  h.add_case("spin", [] {
    timespec start{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &start);
    timespec now = start;
    while ((now.tv_sec - start.tv_sec) * 1000000000L +
               (now.tv_nsec - start.tv_nsec) <
           2000000L) {
      clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
    }
  });
  EXPECT_EQ(h.run(), 0);
  const prof::CaseResult& r = h.results()[0];
  ASSERT_EQ(r.reps.size(), 3u);
  for (const prof::RepSample& rep : r.reps) {
    EXPECT_GE(rep.cpu_ms, 2.0);
    EXPECT_DOUBLE_EQ(rep.wall_ms, 1.0);
  }
  EXPECT_EQ(r.cpu_ms.n, 3u);
  EXPECT_GE(r.cpu_ms.min, 2.0);
  EXPECT_LE(r.cpu_ms.min, r.cpu_ms.median);
}

TEST_F(ProfHarnessTest, WarmupOptionOverridesEnvAndSkipsProfile) {
  prof::Harness h("test_prof_warmup");
  int calls = 0;
  prof::CaseOptions opts;
  opts.warmup = 2;
  h.add_case("warm", [&calls] { ++calls; }, opts);
  EXPECT_EQ(h.run(), 0);
  EXPECT_EQ(calls, 2 + 3);  // two warmups + three measured reps
  EXPECT_EQ(h.results()[0].warmups, 2);
}

TEST_F(ProfHarnessTest, JsonDocumentStructure) {
  prof::Harness h("test_prof_json");
  prof::CaseOptions opts;
  opts.notes.emplace_back("paper_minutes", 20.0);
  h.add_case("spanning", [] {
    ANALOCK_SPAN("prof.case");
    { ANALOCK_SPAN("prof.case.sub"); }
  }, opts);
  EXPECT_EQ(h.run(), 0);

  const std::string json = h.json();
  EXPECT_NE(json.find("\"schema\":\"analock-bench\""), std::string::npos);
  EXPECT_NE(json.find("\"schema_version\":2"), std::string::npos);
  EXPECT_NE(json.find("\"bench\":\"test_prof_json\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"spanning\""), std::string::npos);
  EXPECT_NE(json.find("\"trials_budget\":2"), std::string::npos);
  EXPECT_NE(json.find("\"notes\":{\"paper_minutes\":20}"),
            std::string::npos);
  EXPECT_NE(json.find("\"wall_ms\":{\"n\":3"), std::string::npos);
  EXPECT_NE(json.find("\"cpu_ms\":{\"n\":3"), std::string::npos);
  EXPECT_NE(json.find(",\"cpu_ms\":"), json.rfind(",\"cpu_ms\":"))
      << "per-rep cpu_ms next to each rep's wall_ms";
  // Schema 2 carries no counter fields: no counter mode in the env, no
  // per-case or per-rep counters, and timing-only profile spans.
  EXPECT_EQ(json.find("\"counter"), std::string::npos);
  EXPECT_EQ(json.find("cycles\""), std::string::npos);
  EXPECT_NE(json.find("\"path\":\"prof.case;prof.case.sub\""),
            std::string::npos);

  const std::string folded = h.folded();
  EXPECT_NE(folded.find("prof.case;prof.case.sub "), std::string::npos);
}

}  // namespace
