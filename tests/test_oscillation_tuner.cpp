// Unit tests for calibration steps 5-6 (oscillation-mode tank tuning);
// step 7 on the same tuner is in test_q_tuner.cpp.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <numbers>
#include <vector>

#include "calib/oscillation_tuner.h"
#include "rf/receiver_batch.h"
#include "rf/standards.h"
#include "sim/process.h"
#include "sim/rng.h"

namespace {

using namespace analock;
using calib::measure_frequency;
using calib::OscillationTuner;

TEST(FrequencyCounter, PureToneMeasured) {
  const double fs = 1.0e6;
  const double f = 123456.0;
  std::vector<double> x(32768);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = std::sin(2.0 * std::numbers::pi * f * static_cast<double>(i) / fs);
  }
  const auto m = measure_frequency(x, fs);
  EXPECT_NEAR(m.freq_hz, f, fs / 16384.0);
  EXPECT_NEAR(m.rms, 1.0 / std::sqrt(2.0), 0.01);
}

TEST(FrequencyCounter, HysteresisRejectsNoiseChatter) {
  // Noise riding on a slow sine must not double-count crossings.
  sim::Rng rng(3);
  const double fs = 1.0e6;
  const double f = 5000.0;
  std::vector<double> x(65536);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = std::sin(2.0 * std::numbers::pi * f * static_cast<double>(i) / fs) +
           rng.gaussian(0.0, 0.02);
  }
  const auto m = measure_frequency(x, fs);
  EXPECT_NEAR(m.freq_hz, f, f * 0.01);
}

TEST(FrequencyCounter, SilenceReportsZero) {
  std::vector<double> x(1024, 0.0);
  const auto m = measure_frequency(x, 1.0e6);
  EXPECT_EQ(m.freq_hz, 0.0);
  EXPECT_EQ(m.rms, 0.0);
}

TEST(FrequencyCounter, SquareWaveMeasured) {
  const double fs = 1.0e6;
  std::vector<double> x(16384);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = (i / 10) % 2 == 0 ? 1.0 : -1.0;  // period 20 samples
  }
  const auto m = measure_frequency(x, fs);
  EXPECT_NEAR(m.freq_hz, fs / 20.0, fs / 20.0 * 0.01);
}

TEST(OscillationModeConfig, MatchesPaperSteps) {
  const auto cfg = calib::oscillation_mode_config(10, 20);
  EXPECT_FALSE(cfg.comp_clock_enable);  // step 1
  EXPECT_TRUE(cfg.buffer_in_path);      // step 2
  EXPECT_FALSE(cfg.gmin_enable);        // step 3
  EXPECT_FALSE(cfg.feedback_enable);    // step 4
  EXPECT_EQ(cfg.q_enh, 63u);            // step 5
  EXPECT_EQ(cfg.cap_coarse, 10u);
  EXPECT_EQ(cfg.cap_fine, 20u);
}

class OscillationTunerChipTest : public ::testing::TestWithParam<int> {};

TEST_P(OscillationTunerChipTest, ConvergesOnMonteCarloChip) {
  sim::Rng master(4242);
  const auto pv = sim::ProcessVariation::monte_carlo(
      master, static_cast<std::uint64_t>(GetParam()));
  rf::ReceiverBatch chip(
      rf::standard_max_3ghz(), pv,
      master.fork("chip", static_cast<std::uint64_t>(GetParam())));
  OscillationTuner tuner(chip);
  const auto result = tuner.tune(3.0e9);
  EXPECT_TRUE(result.converged) << "chip " << GetParam();
  EXPECT_NEAR(result.achieved_hz, 3.0e9, 3.0e9 / 100.0);
  EXPECT_LT(tuner.readings(), 60u);
}

INSTANTIATE_TEST_SUITE_P(Chips, OscillationTunerChipTest,
                         ::testing::Values(0, 1, 2, 7));

TEST(OscillationTuner, MeasureReportsOscillationAtMaxQ) {
  sim::Rng master(4242);
  rf::ReceiverBatch chip(rf::standard_max_3ghz(),
                         sim::ProcessVariation::nominal(), master);
  OscillationTuner tuner(chip);
  const auto m = tuner.measure(9, 128);
  EXPECT_GT(m.rms, 0.3);
  EXPECT_GT(m.freq_hz, 2.0e9);
  EXPECT_LT(m.freq_hz, 4.0e9);
}

TEST(OscillationTuner, GentleOverdriveDiscriminatesFineCodes) {
  sim::Rng master(4242);
  rf::ReceiverBatch chip(rf::standard_max_3ghz(),
                         sim::ProcessVariation::nominal(), master);
  OscillationTuner tuner(chip);
  const auto lo = tuner.measure_at_q(9, 32, 28);
  const auto hi = tuner.measure_at_q(9, 224, 28);
  ASSERT_GT(lo.rms, 0.3);
  ASSERT_GT(hi.rms, 0.3);
  // More fine capacitance -> lower frequency, and the difference of 192
  // fine LSBs (~18 MHz at 3 GHz) must be resolved.
  EXPECT_GT(lo.freq_hz - hi.freq_hz, 5.0e6);
}

TEST(OscillationTuner, BluetoothChipZeroIsPinned) {
  // Steps 6-7 and the fine retune on the Bluetooth chip 0 of the default
  // benchmark seed. Its retune search reads its landing code, 176, and
  // the code below it at the same error (both count exactly f0), and
  // keeps 176: only a strictly closer neighbour replaces the landing.
  sim::Rng master(20260704);
  const auto pv = sim::ProcessVariation::monte_carlo(master, 0);
  const double f0 = rf::standard_bluetooth().f0_hz;
  rf::ReceiverBatch chip(rf::standard_bluetooth(), pv,
                         master.fork("chip", 0).fork("calibration-dut"));
  OscillationTuner tuner(chip);
  const auto osc = tuner.tune(f0);
  EXPECT_TRUE(osc.converged);
  EXPECT_EQ(osc.cap_coarse, 46u);
  EXPECT_EQ(osc.cap_fine, 39u);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(osc.achieved_hz),
            0x41e22dee40000000ull);
  EXPECT_EQ(tuner.readings(), 21u);
  const auto q = tuner.back_off(osc.cap_coarse, osc.cap_fine);
  EXPECT_TRUE(q.converged);
  EXPECT_EQ(q.q_enh, 25u);
  EXPECT_EQ(q.q_threshold, 26u);
  EXPECT_EQ(tuner.readings(), 21u + 39u);
  EXPECT_EQ(tuner.fine_tune(osc.cap_coarse, f0, q.q_threshold + 3), 176u);
  EXPECT_EQ(tuner.readings(), 21u + 39u + 11u);
}

TEST(OscillationTuner, LowFrequencyStandardAlsoTunes) {
  sim::Rng master(4242);
  const auto pv = sim::ProcessVariation::monte_carlo(master, 3);
  rf::ReceiverBatch chip(rf::standard_low_1p5ghz(), pv,
                         master.fork("chip", 3));
  OscillationTuner tuner(chip);
  const auto result = tuner.tune(1.5e9);
  EXPECT_TRUE(result.converged);
  EXPECT_NEAR(result.achieved_hz, 1.5e9, 1.5e9 / 100.0);
}

}  // namespace
