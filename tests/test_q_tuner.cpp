// Unit tests for calibration step 7 (-Gm backoff, the Q tuning):
// OscillationTuner::back_off() and oscillates().
#include <gtest/gtest.h>

#include "calib/oscillation_tuner.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include "rf/lc_tank.h"
#include "rf/receiver_batch.h"
#include "rf/standards.h"
#include "sim/process.h"
#include "sim/rng.h"

namespace {

using namespace analock;
using calib::OscillationTuner;

/// Analytically tuned capacitor codes for the nominal chip at 3 GHz.
std::pair<std::uint32_t, std::uint32_t> nominal_caps() {
  const rf::LcTank tank(sim::ProcessVariation::nominal());
  const double c_needed =
      1.0 / (tank.inductance() * std::pow(2.0 * M_PI * 3.0e9, 2.0));
  const auto coarse = static_cast<std::uint32_t>(
      std::floor((c_needed - tank.fixed_cap()) / rf::LcTank::kCoarseStepFarad));
  const double resid = c_needed - tank.capacitance(coarse, 0);
  const auto fine = static_cast<std::uint32_t>(std::clamp(
      std::round(resid / rf::LcTank::kFineStepFarad), 0.0, 255.0));
  return {coarse, fine};
}

TEST(QTuner, FindsThresholdOnNominalChip) {
  sim::Rng master(51);
  const auto pv = sim::ProcessVariation::nominal();
  rf::ReceiverBatch chip(rf::standard_max_3ghz(), pv, master);
  OscillationTuner tuner(chip);
  const auto [cc, cf] = nominal_caps();
  const auto result = tuner.back_off(cc, cf);
  EXPECT_TRUE(result.converged);
  // Analytic threshold: 1/Q0 = q/192 with Q0 = 8 -> q = 24 oscillates,
  // 23 does not; the sequential walk may land 1 lower from slow decay.
  EXPECT_GE(result.q_enh, 21u);
  EXPECT_LE(result.q_enh, 23u);
  EXPECT_EQ(result.q_threshold, result.q_enh + 1);
}

TEST(QTuner, ChosenCodeDoesNotOscillateThresholdDoes) {
  sim::Rng master(51);
  const auto pv = sim::ProcessVariation::nominal();
  rf::ReceiverBatch chip(rf::standard_max_3ghz(), pv, master);
  OscillationTuner tuner(chip);
  const auto [cc, cf] = nominal_caps();
  const auto result = tuner.back_off(cc, cf);
  const rf::LcTank tank(pv);
  EXPECT_FALSE(tank.oscillates(result.q_enh));
  EXPECT_TRUE(tank.oscillates(result.q_threshold + 2));
}

class QTunerChipTest : public ::testing::TestWithParam<int> {};

TEST_P(QTunerChipTest, ThresholdTracksIntrinsicQ) {
  sim::Rng master(52);
  const auto pv = sim::ProcessVariation::monte_carlo(
      master, static_cast<std::uint64_t>(GetParam()));
  rf::ReceiverBatch chip(
      rf::standard_max_3ghz(), pv,
      master.fork("chip", static_cast<std::uint64_t>(GetParam())));
  // Tune the caps first so the oscillation is at band center.
  OscillationTuner tuner(chip);
  const auto caps = tuner.tune(3.0e9);
  ASSERT_TRUE(caps.converged);
  const auto result = tuner.back_off(caps.cap_coarse, caps.cap_fine);
  EXPECT_TRUE(result.converged);
  // Physical threshold = 192 / Q0, +/-2 codes of measurement slack.
  const double expected = 192.0 / pv.tank_q_intrinsic;
  EXPECT_NEAR(static_cast<double>(result.q_enh), expected, 3.0)
      << "chip " << GetParam() << " q0 " << pv.tank_q_intrinsic;
}

INSTANTIATE_TEST_SUITE_P(Chips, QTunerChipTest, ::testing::Values(0, 1, 5));

TEST(QTuner, OscillatesPredicateAgreesWithTank) {
  sim::Rng master(53);
  const auto pv = sim::ProcessVariation::nominal();
  rf::ReceiverBatch chip(rf::standard_max_3ghz(), pv, master);
  OscillationTuner tuner(chip);
  const auto [cc, cf] = nominal_caps();
  EXPECT_TRUE(tuner.oscillates(cc, cf, 63));
  EXPECT_FALSE(tuner.oscillates(cc, cf, 0));
  // Near the analytic threshold (192 / Q0 = 24 for the nominal chip) the
  // measured and analytic answers agree within a couple of codes.
  EXPECT_TRUE(tuner.oscillates(cc, cf, 26));
  EXPECT_FALSE(tuner.oscillates(cc, cf, 20));
}

}  // namespace
