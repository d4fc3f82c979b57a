// Unit tests for the full 14-step calibration procedure.
#include <gtest/gtest.h>

#include <bit>
#include <set>
#include <vector>

#include "calib/calibrator.h"
#include "fault/fault_injector.h"
#include "lock/evaluator.h"
#include "rf/standards.h"
#include "sim/process.h"
#include "sim/rng.h"

namespace {

using namespace analock;
using calib::CalibrationResult;
using calib::Calibrator;

/// Calibrate a few Monte-Carlo chips once; several tests inspect the
/// results.
const std::vector<CalibrationResult>& calibrated_chips() {
  static const std::vector<CalibrationResult> results = [] {
    std::vector<CalibrationResult> out;
    sim::Rng master(2026);
    for (std::uint64_t c = 0; c < 3; ++c) {
      const auto pv = sim::ProcessVariation::monte_carlo(master, c);
      Calibrator calibrator(rf::standard_max_3ghz(), pv,
                            master.fork("chip", c));
      out.push_back(calibrator.run());
    }
    return out;
  }();
  return results;
}

TEST(Calibrator, SucceedsOnMonteCarloChips) {
  for (std::size_t i = 0; i < calibrated_chips().size(); ++i) {
    const auto& r = calibrated_chips()[i];
    EXPECT_TRUE(r.success) << "chip " << i;
    EXPECT_GT(r.snr_modulator_db, 40.0) << "chip " << i;
    EXPECT_GT(r.snr_receiver_db, 40.0) << "chip " << i;
    EXPECT_GT(r.sfdr_db, 40.0) << "chip " << i;
  }
}

TEST(Calibrator, TankTunedWellInsideBand) {
  // Band half-width is f0/64; calibration should land within f0/500.
  for (const auto& r : calibrated_chips()) {
    EXPECT_LT(std::abs(r.tank_freq_err_hz), 3.0e9 / 500.0);
  }
}

TEST(Calibrator, KeysAreUniquePerChip) {
  std::set<std::uint64_t> keys;
  for (const auto& r : calibrated_chips()) keys.insert(r.key.bits());
  EXPECT_EQ(keys.size(), calibrated_chips().size())
      << "process variation must make configuration settings chip-unique";
}

TEST(Calibrator, KeyIsInMissionMode) {
  for (const auto& r : calibrated_chips()) {
    EXPECT_TRUE(lock::is_mission_mode(r.key));
  }
}

TEST(Calibrator, VglnaSegmentsAreStaircase) {
  // Fig. 11: high-sensitivity segment gets more gain than the mid segment,
  // which gets more than the high-power segment.
  for (const auto& r : calibrated_chips()) {
    EXPECT_GT(r.vglna_per_segment[0], r.vglna_per_segment[1]);
    EXPECT_GT(r.vglna_per_segment[1], r.vglna_per_segment[2]);
  }
}

TEST(Calibrator, LogCoversAllPaperSteps) {
  const auto& r = calibrated_chips()[0];
  std::set<int> steps;
  for (const auto& entry : r.log) steps.insert(entry.step);
  for (int s = 1; s <= 14; ++s) {
    EXPECT_TRUE(steps.count(s)) << "missing paper step " << s;
  }
}

TEST(Calibrator, MeasurementBudgetIsBounded) {
  for (const auto& r : calibrated_chips()) {
    EXPECT_LT(r.total_measurements, 1500u);
    EXPECT_GT(r.total_measurements, 100u);
  }
}

TEST(Calibrator, KeyEncodesTheConfig) {
  for (const auto& r : calibrated_chips()) {
    EXPECT_EQ(lock::encode_key(r.config), r.key);
  }
}

TEST(Calibrator, ResultVerifiesOnIndependentEvaluator) {
  sim::Rng master(2026);
  const auto pv = sim::ProcessVariation::monte_carlo(master, 0);
  lock::LockEvaluator ev(rf::standard_max_3ghz(), pv,
                         master.fork("chip", 0));
  const auto report = ev.evaluate(calibrated_chips()[0].key);
  EXPECT_TRUE(report.unlocked());
}

TEST(Calibrator, KeyFromChipADoesNotCalibrateChipB) {
  // Per-chip uniqueness (Section III): cross-applying keys loses margin.
  sim::Rng master(2026);
  const auto pv_b = sim::ProcessVariation::monte_carlo(master, 1);
  lock::LockEvaluator ev_b(rf::standard_max_3ghz(), pv_b,
                           master.fork("chip", 1));
  const auto cross = ev_b.evaluate(calibrated_chips()[0].key);
  const auto own = ev_b.evaluate(calibrated_chips()[1].key);
  EXPECT_GT(own.snr_receiver_db, cross.snr_receiver_db)
      << "chip B must prefer its own key";
}

TEST(Calibrator, HardenedCleanRunProducesTheSameKey) {
  // With no fault campaign attached, hardening must not change the
  // calibration outcome: median votes over a deterministic oracle are a
  // no-op and the retry loops run their bodies exactly once.
  sim::Rng master(909);
  const auto pv = sim::ProcessVariation::monte_carlo(master, 0);
  Calibrator::Options opt;
  opt.tune_vglna_segments = false;
  Calibrator plain(rf::standard_bluetooth(), pv, master.fork("bt"), opt);
  const auto baseline = plain.run();

  opt.harden = true;
  Calibrator hardened(rf::standard_bluetooth(), pv, master.fork("bt"), opt);
  const auto r = hardened.run();
  EXPECT_EQ(r.key, baseline.key);
  EXPECT_EQ(r.success, baseline.success);
  EXPECT_EQ(r.failure, calib::FailureReason::kNone);
  EXPECT_EQ(r.total_retries, 0u);
  EXPECT_EQ(r.faults_injected, 0u);
}

TEST(Calibrator, CheckpointResumeReproducesKeyWithFewerMeasurements) {
  sim::Rng master(909);
  const auto pv = sim::ProcessVariation::monte_carlo(master, 0);
  Calibrator::Options opt;
  opt.tune_vglna_segments = false;
  Calibrator first(rf::standard_bluetooth(), pv, master.fork("bt"), opt);
  const auto full = first.run();
  ASSERT_TRUE(full.checkpoint.tank_done);

  // A later insertion resumes at step 8 from the recorded tank/Q codes.
  Calibrator second(rf::standard_bluetooth(), pv, master.fork("bt"), opt);
  const auto resumed = second.run(full.checkpoint);
  EXPECT_EQ(resumed.key, full.key);
  EXPECT_EQ(resumed.success, full.success);
  EXPECT_DOUBLE_EQ(resumed.tank_freq_err_hz, full.tank_freq_err_hz);
  EXPECT_LT(resumed.total_measurements, full.total_measurements);
}

TEST(Calibrator, DropoutCampaignWithoutHardeningReportsSpecNotMet) {
  // Every oracle reading is a -200 dB dropout: the unhardened run cannot
  // pass final characterization and must say why it failed.
  fault::FaultPlan plan;
  plan.seed = 4;
  plan.meas_dropout_prob = 1.0;
  fault::FaultInjector injector(plan);
  sim::Rng master(909);
  const auto pv = sim::ProcessVariation::monte_carlo(master, 0);
  Calibrator::Options opt;
  opt.tune_vglna_segments = false;
  opt.refine_after_vglna = false;
  opt.bias_passes = 1;
  Calibrator calibrator(rf::standard_bluetooth(), pv, master.fork("bt"), opt);
  calibrator.set_fault_injector(&injector);
  const auto r = calibrator.run();
  EXPECT_FALSE(r.success);
  EXPECT_EQ(r.failure, calib::FailureReason::kSpecNotMet);
  EXPECT_GT(r.faults_injected, 0u);
}

TEST(Calibrator, DefaultSeedChipZeroIsPinned) {
  // Key and per-step oracle measurements of the benchmark's first chip.
  // Any thread count must reproduce them: ctest also runs this suite
  // under ANALOCK_THREADS=1 and =7.
  sim::Rng master(20260704);
  const auto pv = sim::ProcessVariation::monte_carlo(master, 0);
  Calibrator calibrator(rf::standard_max_3ghz(), pv, master.fork("chip", 0));
  const auto r = calibrator.run();
  EXPECT_TRUE(r.success);
  EXPECT_EQ(r.key.bits(), 0x1e2de26ded9da10bull);
  EXPECT_EQ(r.total_measurements, 745u);
  auto step_measurements = [&](int step) {
    for (const auto& entry : r.log) {
      if (entry.step == step) return entry.measurements;
    }
    return std::uint64_t{0};
  };
  EXPECT_EQ(step_measurements(14), 424u);
  EXPECT_EQ(step_measurements(12), 246u);
  // Steps 5-7 on the oscillating chip: the tank and -Gm codes, the bits of
  // the landing error, and the readings of step 7 and of both step-6
  // entries (the tank tune, then the fine retune at gentle overdrive).
  EXPECT_EQ(r.checkpoint.cap_coarse, 16u);
  EXPECT_EQ(r.checkpoint.cap_fine, 218u);
  EXPECT_EQ(r.checkpoint.q_enh, 25u);
  EXPECT_EQ(r.checkpoint.q_threshold, 26u);
  // The gentle-overdrive reading counts exactly f0: +0.0.
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.checkpoint.tank_freq_err_hz),
            0x0000000000000000ull);
  std::vector<std::uint64_t> step6;
  for (const auto& entry : r.log) {
    if (entry.step == 6) step6.push_back(entry.measurements);
  }
  EXPECT_EQ(step6, (std::vector<std::uint64_t>{21, 12}));
  EXPECT_EQ(step_measurements(7), 39u);
}

TEST(Calibrator, WorksForBluetoothStandard) {
  sim::Rng master(909);
  const auto pv = sim::ProcessVariation::monte_carlo(master, 0);
  Calibrator::Options opt;
  opt.tune_vglna_segments = false;  // keep this test fast
  Calibrator calibrator(rf::standard_bluetooth(), pv, master.fork("bt"), opt);
  const auto r = calibrator.run();
  EXPECT_GT(r.snr_modulator_db, 40.0);
  EXPECT_LT(std::abs(r.tank_freq_err_hz), 2.44e9 / 300.0);
}

}  // namespace
