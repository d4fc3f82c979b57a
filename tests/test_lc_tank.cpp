// Unit tests for the tunable LC tank and the discrete resonator.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "reference_receiver.h"
#include "rf/lc_tank.h"
#include "sim/process.h"

namespace {

using namespace analock;
using rf::LcTank;
using reference::Resonator;

TEST(LcTank, NominalResonanceCoversRange) {
  const LcTank tank(sim::ProcessVariation::nominal());
  // Minimum capacitance (codes 0,0) must resonate above 3 GHz; maximum
  // must reach below 1.5 GHz.
  EXPECT_GT(tank.resonance_hz(0, 0), 3.0e9);
  EXPECT_LT(tank.resonance_hz(255, 255), 1.5e9);
}

TEST(LcTank, CapacitanceIsMonotoneInCodes) {
  const LcTank tank(sim::ProcessVariation::nominal());
  EXPECT_LT(tank.capacitance(10, 0), tank.capacitance(11, 0));
  EXPECT_LT(tank.capacitance(10, 5), tank.capacitance(10, 6));
}

TEST(LcTank, FrequencyMonotoneDecreasingInCapacitance) {
  const LcTank tank(sim::ProcessVariation::nominal());
  double prev = 1e18;
  for (std::uint32_t c = 0; c <= 255; c += 17) {
    const double f = tank.resonance_hz(c, 128);
    EXPECT_LT(f, prev);
    prev = f;
  }
}

TEST(LcTank, FineStepIsFractionOfCoarse) {
  const LcTank tank(sim::ProcessVariation::nominal());
  const double coarse_step =
      tank.resonance_hz(10, 0) - tank.resonance_hz(11, 0);
  const double fine_step =
      tank.resonance_hz(10, 0) - tank.resonance_hz(10, 1);
  EXPECT_NEAR(coarse_step / fine_step, 200.0, 10.0);
}

TEST(LcTank, FineRangeCoversOneCoarseStep) {
  const LcTank tank(sim::ProcessVariation::nominal());
  // Fine span (255 steps) must exceed one coarse step so no frequency gap
  // exists between adjacent coarse codes.
  EXPECT_GT(255.0 * LcTank::kFineStepFarad, LcTank::kCoarseStepFarad);
}

TEST(LcTank, QEnhancementReachesOscillation) {
  const LcTank tank(sim::ProcessVariation::nominal());
  EXPECT_FALSE(tank.oscillates(0));
  EXPECT_TRUE(tank.oscillates(63));
  // Threshold is monotone: once oscillating, stays oscillating.
  bool seen = false;
  for (std::uint32_t q = 0; q <= 63; ++q) {
    if (tank.oscillates(q)) seen = true;
    if (seen) EXPECT_TRUE(tank.oscillates(q)) << "q " << q;
  }
}

TEST(LcTank, PoleRadiusCrossesUnityAtThreshold) {
  const LcTank tank(sim::ProcessVariation::nominal());
  for (std::uint32_t q = 0; q <= 63; ++q) {
    const double r = tank.pole_radius(9, 128, q, 12.0e9);
    if (tank.oscillates(q)) {
      EXPECT_GE(r, 1.0) << "q " << q;
    } else {
      EXPECT_LT(r, 1.0) << "q " << q;
    }
  }
}

TEST(LcTank, PoleAngleMatchesResonance) {
  const LcTank tank(sim::ProcessVariation::nominal());
  const double fs = 12.0e9;
  const double f = tank.resonance_hz(9, 128);
  EXPECT_NEAR(tank.pole_angle(9, 128, fs),
              2.0 * std::numbers::pi * f / fs, 1e-9);
}

TEST(LcTank, ProcessVariationShiftsResonance) {
  sim::ProcessVariation pv;
  pv.tank_c_rel = 0.05;
  const LcTank fast(sim::ProcessVariation::nominal());
  const LcTank slow(pv);
  EXPECT_GT(fast.resonance_hz(9, 128), slow.resonance_hz(9, 128));
}

TEST(Resonator, RingsAtConfiguredFrequency) {
  Resonator res;
  const double theta = std::numbers::pi / 2.0;
  res.configure(std::cos(theta), 0.999);
  // Impulse, then count zero crossings of the ring-down.
  res.step(1.0);
  int crossings = 0;
  double prev = res.state();
  const int n = 1000;
  for (int i = 0; i < n; ++i) {
    res.step(0.0);
    if (prev < 0.0 && res.state() >= 0.0) ++crossings;
    prev = res.state();
  }
  const double freq = static_cast<double>(crossings) / n;  // cycles/sample
  EXPECT_NEAR(freq, theta / (2.0 * std::numbers::pi), 0.01);
}

TEST(Resonator, DecaysWhenStable) {
  Resonator res;
  res.configure(std::cos(std::numbers::pi / 2.0), 0.98);
  res.step(1.0);
  for (int i = 0; i < 2000; ++i) res.step(0.0);
  EXPECT_LT(std::abs(res.state()), 1e-8);
}

TEST(Resonator, GrowsFromNoiseWhenUnstable) {
  Resonator res;
  res.configure(std::cos(std::numbers::pi / 2.0), 1.05);
  res.step(1e-3);
  double peak = 0.0;
  for (int i = 0; i < 4000; ++i) {
    res.step(0.0);
    peak = std::max(peak, std::abs(res.state()));
  }
  EXPECT_GT(peak, 1.0);
  EXPECT_LE(peak, rf::Resonator::kStateRail + 1e-9);
}

TEST(Resonator, OscillationAmplitudeStabilizesBelowRail) {
  // The -Gm saturation (AGC) must settle the limit cycle between the knee
  // and the rail, not slam the rail.
  Resonator res;
  res.configure(std::cos(std::numbers::pi / 2.0), 1.17);
  res.step(1e-3);
  for (int i = 0; i < 8000; ++i) res.step(0.0);
  double peak = 0.0;
  for (int i = 0; i < 1000; ++i) {
    res.step(0.0);
    peak = std::max(peak, std::abs(res.state()));
  }
  EXPECT_GT(peak, rf::Resonator::kAgcKnee);
  EXPECT_LT(peak, rf::Resonator::kStateRail);
}

TEST(Resonator, LinearBelowKnee) {
  // Small-signal behavior must be exactly linear (no AGC, no soft rail):
  // doubling the input doubles the state trajectory.
  Resonator a;
  Resonator b;
  a.configure(std::cos(1.3), 0.995);
  b.configure(std::cos(1.3), 0.995);
  double max_err = 0.0;
  for (int i = 0; i < 500; ++i) {
    const double x = 0.01 * std::sin(0.7 * i);
    const double sa = a.step(x);
    const double sb = b.step(2.0 * x);
    max_err = std::max(max_err, std::abs(sb - 2.0 * sa));
  }
  EXPECT_LT(max_err, 1e-12);
}

TEST(Resonator, ResetClearsState) {
  Resonator res;
  res.configure(std::cos(1.0), 0.99);
  res.step(1.0);
  res.reset();
  EXPECT_EQ(res.state(), 0.0);
  res.step(0.0);
  EXPECT_EQ(res.state(), 0.0);
}

TEST(SoftRail, LinearBelowKneeExactly) {
  for (double x : {-3.9, -1.0, 0.0, 2.5, 3.99}) {
    EXPECT_DOUBLE_EQ(rf::soft_rail(x, 8.0), x);
  }
}

TEST(SoftRail, BoundedAndMonotone) {
  double prev = -1e9;
  for (double x = -30.0; x <= 30.0; x += 0.1) {
    const double y = rf::soft_rail(x, 8.0);
    EXPECT_LE(std::abs(y), 8.0);
    EXPECT_GE(y, prev - 1e-12);
    prev = y;
  }
}

TEST(SoftRail, OddSymmetry) {
  for (double x : {0.5, 3.0, 6.0, 20.0}) {
    EXPECT_DOUBLE_EQ(rf::soft_rail(-x, 8.0), -rf::soft_rail(x, 8.0));
  }
}

}  // namespace
