// Unit tests for the composed receiver (scalar reference) and its stimuli.
#include <gtest/gtest.h>

#include <cmath>

#include "dsp/spectrum.h"
#include "reference_receiver.h"
#include "rf/receiver.h"
#include "sim/units.h"

namespace {

using namespace analock;
using namespace analock::rf;
using reference::Receiver;

Receiver make_receiver(const Standard& std_mode = standard_max_3ghz()) {
  return Receiver(std_mode, sim::ProcessVariation::nominal(), sim::Rng(17));
}

TEST(Receiver, ConfigRoundTrips) {
  auto rx = make_receiver();
  ReceiverConfig cfg;
  cfg.vglna_gain = 7;
  cfg.modulator.cap_coarse = 42;
  cfg.modulator.gmin_bias = 11;
  cfg.digital_mode = 3;
  rx.configure(cfg);
  EXPECT_EQ(rx.config(), cfg);
  EXPECT_EQ(rx.modulator().config().cap_coarse, 42u);
}

TEST(Receiver, FsMatchesStandard) {
  auto rx = make_receiver();
  EXPECT_DOUBLE_EQ(rx.fs_hz(), 12.0e9);
}

TEST(Receiver, CaptureLengthAccounting) {
  auto rx = make_receiver();
  const std::size_t n = receiver_input_length(256);
  const auto in = make_test_tone(rx.standard(), -25.0, n);
  const auto cap = rx.capture_receiver(in);
  EXPECT_GE(cap.baseband.samples.size(), 256u);
  EXPECT_DOUBLE_EQ(cap.baseband.fs_hz, 12.0e9 / 64.0);
}

TEST(Receiver, ModulatorCaptureDropsSettle) {
  auto rx = make_receiver();
  const auto in = make_test_tone(rx.standard(), -25.0, 4096);
  const auto cap = rx.capture_modulator(in, 1024);
  EXPECT_EQ(cap.output.size(), 3072u);
}

TEST(Receiver, TestToneDefaultsToSixteenBins) {
  const auto& s = standard_max_3ghz();
  EXPECT_NEAR(default_tone_offset_hz(s), 16.0 * s.fs_hz() / 8192.0, 1.0);
}

TEST(Receiver, TestToneAmplitude) {
  const auto& s = standard_max_3ghz();
  const auto tone = make_test_tone(s, -25.0, 8192);
  double peak = 0.0;
  for (const double v : tone) peak = std::max(peak, std::abs(v));
  EXPECT_NEAR(peak, sim::dbm_to_peak_volts(-25.0), 1e-4);
}

TEST(Receiver, TwoToneSpacing) {
  const auto& s = standard_max_3ghz();
  const auto x = make_two_tone(s, -25.0, 16384, 10.0e6);
  const dsp::Periodogram p(x, s.fs_hz());
  const double center = s.f0_hz + default_tone_offset_hz(s);
  EXPECT_GT(p.tone_power(center - 5.0e6).power, 1e-6);
  EXPECT_GT(p.tone_power(center + 5.0e6).power, 1e-6);
}

TEST(Receiver, ResetKeepsConfiguration) {
  auto rx = make_receiver();
  ReceiverConfig cfg;
  cfg.vglna_gain = 5;
  rx.configure(cfg);
  rx.reset();
  EXPECT_EQ(rx.config().vglna_gain, 5u);
}

TEST(Receiver, DeterministicAcrossInstances) {
  // Same standard, process, and seed: captures must be bit-identical —
  // the property the evaluator and calibration rely on.
  auto a = make_receiver();
  auto b = make_receiver();
  const auto in = make_test_tone(standard_max_3ghz(), -25.0, 4096);
  const auto ca = a.capture_modulator(in, 0);
  const auto cb = b.capture_modulator(in, 0);
  ASSERT_EQ(ca.output.size(), cb.output.size());
  for (std::size_t i = 0; i < ca.output.size(); ++i) {
    EXPECT_EQ(ca.output[i], cb.output[i]) << "sample " << i;
  }
}

TEST(Receiver, DifferentSeedsDifferentNoise) {
  // Observe an analog tap: a sliced bitstream can quantize the noise
  // difference away when the signal dominates, but an analog node cannot.
  ReceiverConfig cfg;
  cfg.modulator.test_mux = 2;
  Receiver a(standard_max_3ghz(), sim::ProcessVariation::nominal(),
             sim::Rng(17));
  Receiver b(standard_max_3ghz(), sim::ProcessVariation::nominal(),
             sim::Rng(18));
  a.configure(cfg);
  b.configure(cfg);
  const auto in = make_test_tone(standard_max_3ghz(), -25.0, 4096);
  const auto ca = a.capture_modulator(in, 2048);
  const auto cb = b.capture_modulator(in, 2048);
  int diff = 0;
  for (std::size_t i = 0; i < ca.output.size(); ++i) {
    if (ca.output[i] != cb.output[i]) ++diff;
  }
  EXPECT_GT(diff, 10);
}

TEST(Receiver, StepAnalogIsBitstreamInMissionMode) {
  auto rx = make_receiver();
  ReceiverConfig cfg;
  cfg.modulator.cap_coarse = 8;
  cfg.modulator.cap_fine = 197;
  cfg.modulator.q_enh = 20;
  cfg.modulator.loop_delay = 10;
  rx.configure(cfg);
  const auto in = make_test_tone(rx.standard(), -25.0, 1000);
  for (const double v : in) {
    const double y = rx.step_analog(v);
    EXPECT_TRUE(y == 1.0 || y == -1.0);
  }
}

class ReceiverStandardTest : public ::testing::TestWithParam<const char*> {};

TEST_P(ReceiverStandardTest, BuildsAndRunsForEveryStandard) {
  const Standard* s = find_standard(GetParam());
  ASSERT_NE(s, nullptr);
  Receiver rx(*s, sim::ProcessVariation::nominal(), sim::Rng(3));
  const auto in = make_test_tone(*s, -25.0, 2048);
  const auto cap = rx.capture_modulator(in, 0);
  EXPECT_EQ(cap.output.size(), 2048u);
  for (const double v : cap.output) EXPECT_TRUE(std::isfinite(v));
}

INSTANTIATE_TEST_SUITE_P(AllStandards, ReceiverStandardTest,
                         ::testing::Values("max-3GHz", "bluetooth", "zigbee",
                                           "wifi-802.11b", "low-1.5GHz",
                                           "gps-l1"));

}  // namespace
