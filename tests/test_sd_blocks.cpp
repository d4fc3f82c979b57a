// Unit tests for the modulator's bias-programmable blocks: their code ->
// parameter maps (rf::lane_constants) and their per-sample behavior (the
// scalar reference blocks).
#include <gtest/gtest.h>

#include <cmath>

#include "reference_receiver.h"
#include "rf/lane_constants.h"
#include "rf/sd_blocks.h"
#include "rf/standards.h"

namespace {

using namespace analock;
using namespace analock::rf;

/// Constants of the modulator configured by `set` on chip `pv`.
template <typename Set>
LaneConstants constants(Set set, const sim::ProcessVariation& pv =
                                     sim::ProcessVariation::nominal()) {
  ReceiverConfig config;
  set(config.modulator);
  return lane_constants(standard_max_3ghz(), pv, config);
}

/// Constants with one bias field at `code`.
LaneConstants with_bias(std::uint32_t ModulatorConfig::*field,
                        std::uint32_t code,
                        const sim::ProcessVariation& pv =
                            sim::ProcessVariation::nominal()) {
  return constants([&](ModulatorConfig& m) { m.*field = code; }, pv);
}

TEST(BiasCurve, RangeAndUnityPoint) {
  // Starved at code 0 (leakage floor), full overdrive 1.75 at code 63,
  // unity bias near code 46.
  EXPECT_DOUBLE_EQ(bias_multiplier(0), 0.01);
  EXPECT_DOUBLE_EQ(bias_multiplier(63), 1.75);
  EXPECT_NEAR(bias_multiplier(46), 1.0, 0.03);
}

TEST(BiasCurve, LowCodesStarveTheBlock) {
  EXPECT_LT(bias_multiplier(8), 0.05);
  EXPECT_LT(bias_multiplier(16), 0.25);
}

TEST(BiasCurve, MonotoneAboveTheFloor) {
  for (std::uint32_t c = 5; c <= 63; ++c) {
    EXPECT_GT(bias_multiplier(c), bias_multiplier(c - 1));
  }
}

TEST(BiasCurve, InverseRoundTrip) {
  // Exact above the leakage floor (codes >= 4).
  for (std::uint32_t c = 7; c <= 63; c += 7) {
    EXPECT_EQ(bias_code_for_multiplier(bias_multiplier(c)), c);
  }
}

TEST(BiasCurve, InverseClamps) {
  EXPECT_EQ(bias_code_for_multiplier(0.0), 0u);
  EXPECT_EQ(bias_code_for_multiplier(5.0), 63u);
}

TEST(CubicSoft, UnitSmallSignalGain) {
  EXPECT_NEAR(cubic_soft(1e-6, 2.4) / 1e-6, 1.0, 1e-9);
}

TEST(CubicSoft, MonotoneAndClamped) {
  double prev = -1e9;
  for (double x = -5.0; x <= 5.0; x += 0.01) {
    const double y = cubic_soft(x, 2.4);
    EXPECT_GE(y, prev - 1e-12);
    prev = y;
  }
  // Beyond the inflection the output is pinned.
  EXPECT_DOUBLE_EQ(cubic_soft(2.0, 2.4), cubic_soft(5.0, 2.4));
}

TEST(Transconductor, GainFollowsBias) {
  const auto gm = [](std::uint32_t code) {
    return with_bias(&ModulatorConfig::gmin_bias, code).front_end.gm;
  };
  EXPECT_NEAR(gm(63) / gm(16), bias_multiplier(63) / bias_multiplier(16),
              0.01);
  EXPECT_LT(gm(0), 0.05) << "starved transconductor is dead";
}

TEST(Transconductor, DisabledOutputsZero) {
  reference::Transconductor gm(sim::Rng(1));
  gm.configure(constants([](ModulatorConfig& m) { m.gmin_enable = false; }));
  for (int i = 0; i < 10; ++i) EXPECT_EQ(gm.process(0.5), 0.0);
}

TEST(Transconductor, ProcessVariationScalesGm) {
  sim::ProcessVariation pv;
  pv.gmin_rel = 0.1;
  const double gm = with_bias(&ModulatorConfig::gmin_bias, 32, pv).front_end.gm;
  const double nom = with_bias(&ModulatorConfig::gmin_bias, 32).front_end.gm;
  EXPECT_NEAR(gm / nom, 1.1, 1e-9);
}

TEST(Transconductor, NoiseFloorDropsWithBias) {
  // Average output power with zero input is the noise; more bias current
  // means less noise in the model.
  auto measure = [](std::uint32_t code) {
    reference::Transconductor gm(sim::Rng(5));
    gm.configure(with_bias(&ModulatorConfig::gmin_bias, code));
    double sum = 0.0;
    for (int i = 0; i < 50000; ++i) {
      const double y = gm.process(0.0);
      sum += y * y;
    }
    return sum / 50000.0;
  };
  EXPECT_GT(measure(0), measure(63));
}

TEST(PreAmplifier, GainAndClip) {
  const auto k = with_bias(&ModulatorConfig::preamp_bias, 46);  // unity bias
  EXPECT_NEAR(k.preamp_gain, 4.0, 0.2);
  reference::PreAmplifier pre(sim::Rng(2));
  pre.configure(k);
  EXPECT_LE(std::abs(pre.process(100.0)), PreAmplifier::kRail);
}

TEST(Comparator, ClockedDecisionsAreBinary) {
  reference::Comparator comp(sim::Rng(3));
  comp.configure(with_bias(&ModulatorConfig::comp_bias, 32));
  for (int i = 0; i < 100; ++i) {
    const double y = comp.process(0.5 * std::sin(0.3 * i));
    EXPECT_TRUE(y == 1.0 || y == -1.0);
  }
}

TEST(Comparator, UnclockedIsSubThresholdAnalog) {
  reference::Comparator comp(sim::Rng(3));
  comp.configure(
      constants([](ModulatorConfig& m) { m.comp_clock_enable = false; }));
  for (int i = 0; i < 100; ++i) {
    const double y = comp.process(5.0);
    EXPECT_LT(std::abs(y), 0.5)
        << "un-clocked swing must stay below the logic threshold";
    EXPECT_GT(y, 0.3) << "a large input should still saturate near the rail";
  }
}

TEST(Comparator, OffsetShrinksWithBias) {
  sim::ProcessVariation pv;
  pv.comparator_offset = 0.04;
  const double off_low =
      with_bias(&ModulatorConfig::comp_bias, 0, pv).comp_offset;
  const double off_high =
      with_bias(&ModulatorConfig::comp_bias, 63, pv).comp_offset;
  EXPECT_GT(off_low, off_high);
}

TEST(Comparator, NoiseHasBiasSweetSpot) {
  const auto noise = [](std::uint32_t code) {
    return with_bias(&ModulatorConfig::comp_bias, code).comp_rms;
  };
  // Multiplier ~1 at code 31: thermal improved, no kickback yet.
  EXPECT_LT(noise(31), noise(0));
  EXPECT_LT(noise(31), noise(63));
}

TEST(FeedbackDac, SlicesAnalogInput) {
  reference::FeedbackDac dac(sim::Rng(4));
  dac.configure(
      with_bias(&ModulatorConfig::dac_bias, bias_code_for_multiplier(1.0)));
  double plus = 0.0;
  double minus = 0.0;
  for (int i = 0; i < 10000; ++i) {
    plus += dac.convert(0.2);    // weak but positive -> +level
    minus += dac.convert(-0.2);
  }
  EXPECT_NEAR(plus / 10000.0, 1.0, 0.05);
  EXPECT_NEAR(minus / 10000.0, -1.0, 0.05);
}

TEST(FeedbackDac, BiasErrorCreatesAsymmetryAndNoise) {
  const auto k_good =
      with_bias(&ModulatorConfig::dac_bias, bias_code_for_multiplier(1.0));
  const auto k_bad = with_bias(&ModulatorConfig::dac_bias, 0);
  // Asymmetry: |mean(level+ + level-)| larger for the wrong bias.
  auto dc = [](const LaneConstants& k) {
    reference::FeedbackDac dac(sim::Rng(4));
    dac.configure(k);
    double sum = 0.0;
    for (int i = 0; i < 20000; ++i) {
      sum += dac.convert(i % 2 == 0 ? 1.0 : -1.0);
    }
    return std::abs(sum / 20000.0);
  };
  EXPECT_GT(dc(k_bad) + 0.001, dc(k_good));
  // The mean of the two levels is the DAC's effective gain.
  const auto gain = [](const LaneConstants& k) {
    return (k.dac_plus - k.dac_minus) / 2.0;
  };
  EXPECT_GT(std::abs(gain(k_bad) - 1.0), std::abs(gain(k_good) - 1.0));
}

TEST(FractionalDelayLine, IntegerDelayExact) {
  reference::FractionalDelayLine line;
  line.set_delay(1.0);
  const double seq[] = {1.0, 2.0, 3.0, 4.0, 5.0};
  double last = 0.0;
  for (double x : seq) {
    line.push(x);
    last = line.read();
  }
  EXPECT_DOUBLE_EQ(last, 4.0);  // one sample behind the latest push
}

TEST(FractionalDelayLine, ZeroDelayReadsLatest) {
  reference::FractionalDelayLine line;
  line.set_delay(0.0);
  line.push(7.0);
  EXPECT_DOUBLE_EQ(line.read(), 7.0);
}

TEST(FractionalDelayLine, FractionalInterpolates) {
  reference::FractionalDelayLine line;
  line.set_delay(0.5);
  line.push(0.0);
  line.push(10.0);
  EXPECT_DOUBLE_EQ(line.read(), 5.0);
}

TEST(FractionalDelayLine, CodeAddsToParasitic) {
  sim::ProcessVariation pv;
  pv.loop_delay_parasitic = 0.35;
  const auto k =
      constants([](ModulatorConfig& m) { m.loop_delay = 10; }, pv);
  EXPECT_NEAR(k.delay_samples, 0.35 + 10.0 / 15.0, 1e-12);
  pv.loop_delay_parasitic = 0.0;
  const auto full =
      constants([](ModulatorConfig& m) { m.loop_delay = 15; }, pv);
  EXPECT_DOUBLE_EQ(full.delay_samples, 1.0);
}

TEST(FractionalDelayLine, ResetZeroes) {
  reference::FractionalDelayLine line;
  line.set_delay(1.0);
  line.push(3.0);
  line.push(4.0);
  line.reset();
  EXPECT_DOUBLE_EQ(line.read(), 0.0);
}

TEST(OutputBuffer, GainCodesScaleOutput) {
  const auto buffer = [](std::uint32_t code) {
    reference::OutputBuffer buf(sim::Rng(6));
    buf.configure(constants([&](ModulatorConfig& m) { m.out_buffer = code; }));
    return buf;
  };
  auto low = buffer(0);
  auto high = buffer(15);
  EXPECT_GT(high.process(0.5), low.process(0.5));
  EXPECT_LE(std::abs(high.process(10.0)), OutputBuffer::kRail);
}

}  // namespace
