// Unit tests for the variable-gain LNA: its gain code -> stage and noise
// map (rf::lane_constants) and the cascade's per-sample behavior (the
// scalar reference VGLNA).
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <vector>

#include "reference_receiver.h"
#include "rf/lane_constants.h"
#include "rf/standards.h"
#include "rf/vglna.h"
#include "sim/units.h"

namespace {

using namespace analock;
using rf::Vglna;

/// Front-end constants at gain `code` on chip `pv` (fs = 12 GHz).
rf::LaneConstants::FrontEnd front_end(
    std::uint32_t code,
    const sim::ProcessVariation& pv = sim::ProcessVariation::nominal()) {
  rf::ReceiverConfig config;
  config.vglna_gain = code;
  return rf::lane_constants(rf::standard_max_3ghz(), pv, config).front_end;
}

/// Total small-signal gain of the five-stage cascade (dB).
double gain_db(const rf::LaneConstants::FrontEnd& fe) {
  return static_cast<double>(Vglna::kNumStages) *
         sim::to_db20(fe.vglna_stage.gain);
}

reference::Vglna make_lna(std::uint32_t code) {
  reference::Vglna lna(sim::Rng(7));
  rf::ReceiverConfig config;
  config.vglna_gain = code;
  lna.configure(rf::lane_constants(rf::standard_max_3ghz(),
                                   sim::ProcessVariation::nominal(), config));
  return lna;
}

/// Measured small-signal gain via a sinusoidal probe (amplitude well below
/// compression), correlating against the probe to reject noise.
double measured_gain(reference::Vglna& lna, double amp = 1e-3) {
  const std::size_t n = 4096;
  const double f_rel = 0.25;
  double corr = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double x =
        amp * std::sin(2.0 * std::numbers::pi * f_rel * static_cast<double>(i));
    corr += lna.process(x) *
            std::sin(2.0 * std::numbers::pi * f_rel * static_cast<double>(i));
  }
  return corr / (static_cast<double>(n) / 2.0) / amp;
}

TEST(Vglna, SixteenGainLevelsMonotone) {
  double prev = -1e9;
  for (std::uint32_t code = 0; code < Vglna::kNumGainLevels; ++code) {
    const double g = gain_db(front_end(code));
    EXPECT_GT(g, prev) << "code " << code;
    prev = g;
  }
}

TEST(Vglna, GainTableSpansPaperRange) {
  EXPECT_NEAR(gain_db(front_end(0)), -9.0, 0.01);
  EXPECT_NEAR(gain_db(front_end(15)), 36.0, 0.01);
}

class VglnaGainCodeTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(VglnaGainCodeTest, MeasuredGainMatchesTable) {
  auto lna = make_lna(GetParam());
  const double expected = sim::from_db20(gain_db(front_end(GetParam())));
  const double g = measured_gain(lna);
  EXPECT_NEAR(g / expected, 1.0, 0.05) << "code " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Codes, VglnaGainCodeTest,
                         ::testing::Values(0u, 3u, 6u, 9u, 12u, 15u));

TEST(Vglna, CodeWrapsAtFourBits) {
  const auto wrapped = front_end(16);
  const auto zero = front_end(0);
  EXPECT_EQ(wrapped.vglna_stage.gain, zero.vglna_stage.gain);
  EXPECT_EQ(wrapped.vglna_rms, zero.vglna_rms);
}

TEST(Vglna, NoiseFigureImprovesWithGain) {
  // The input-referred noise follows the noise figure (1 dB floor).
  const double floor_rms = sim::thermal_noise_rms_volts(6.0e9, 1.0);
  EXPECT_LT(front_end(15).vglna_rms, front_end(0).vglna_rms);
  EXPECT_GE(front_end(15).vglna_rms, floor_rms);
}

TEST(Vglna, Iip3DegradesWithGain) {
  // Every stage keeps the fixed stage IIP3, so the input-referred IIP3
  // amplitude is it divided by the gain ahead of the last stage.
  const auto input_iip3 = [](std::uint32_t code) {
    const rf::Vglna::Stage st = front_end(code).vglna_stage;
    const double stage_iip3 = std::sqrt(-4.0 * st.gain / (3.0 * st.a3));
    EXPECT_NEAR(stage_iip3, Vglna::kStageIip3Volts, 1e-9);
    return stage_iip3 / std::pow(st.gain, Vglna::kNumStages - 1);
  };
  EXPECT_GT(input_iip3(2), input_iip3(14));
}

TEST(Vglna, OutputClipsAtRail) {
  auto lna = make_lna(15);
  for (int i = 0; i < 100; ++i) {
    EXPECT_LE(std::abs(lna.process(0.5)), Vglna::kRailVolts + 1e-9);
  }
}

TEST(Vglna, CompressionAtLargeInput) {
  auto lna = make_lna(9);
  const double g_small = measured_gain(lna, 1e-3);
  const double g_large = measured_gain(lna, 0.3);
  EXPECT_LT(g_large, 0.9 * g_small);
}

TEST(Vglna, ProcessVariationShiftsGain) {
  sim::ProcessVariation pv;
  pv.vglna_gain_db_err = 0.8;
  EXPECT_NEAR(gain_db(front_end(8, pv)), -9.0 + 24.0 + 0.8, 1e-9);
}

TEST(Vglna, NoiseFloorPresentWithZeroInput) {
  auto lna = make_lna(15);
  double sum_sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double y = lna.process(0.0);
    sum_sq += y * y;
  }
  const double rms = std::sqrt(sum_sq / n);
  // Input-referred thermal noise times the gain, within a factor of 2.
  const auto fe = front_end(15);
  const double expected = fe.vglna_rms * sim::from_db20(gain_db(fe));
  EXPECT_GT(rms, expected * 0.5);
  EXPECT_LT(rms, expected * 2.0);
}

}  // namespace
