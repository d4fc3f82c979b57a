// Integration tests pinning the paper's Section VI claims (the same
// checks the bench binaries report, at reduced sample counts).
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "calibrated_fixture.h"
#include "dsp/spectrum.h"
#include "lock/key_layout.h"
#include "reference_receiver.h"

namespace {

using namespace analock;
using lock::Key64;

struct Fig7Data {
  double correct_snr_mod;
  double correct_snr_rx;
  std::vector<double> invalid_snr_mod;
  std::vector<double> invalid_snr_rx;
  Key64 deceptive_key;
  double deceptive_snr_mod = -300.0;
};

/// 40 random invalid keys measured at both outputs (the paper uses 100;
/// 40 keeps the test binary fast while preserving the distribution).
const Fig7Data& fig7() {
  static const Fig7Data data = [] {
    Fig7Data d;
    auto ev = fixtures::make_evaluator(0);
    const auto& key = fixtures::chip(0).cal.key;
    d.correct_snr_mod = ev.snr_modulator_db(key);
    d.correct_snr_rx = ev.snr_receiver_db(key);
    sim::Rng rng(777);
    for (int i = 0; i < 40; ++i) {
      const Key64 k = Key64::random(rng);
      const double snr_mod = ev.snr_modulator_db(k);
      d.invalid_snr_mod.push_back(snr_mod);
      d.invalid_snr_rx.push_back(ev.snr_receiver_db(k));
      if (snr_mod > d.deceptive_snr_mod) {
        d.deceptive_snr_mod = snr_mod;
        d.deceptive_key = k;
      }
    }
    return d;
  }();
  return data;
}

TEST(PaperFig7, CorrectKeyExceeds40dB) {
  EXPECT_GT(fig7().correct_snr_mod, 40.0);
}

TEST(PaperFig7, InvalidKeysAreLockedBySomePerformance) {
  // The paper's criterion: locking succeeds when at least one performance
  // violates its specification. Most invalid keys already fail on SNR; a
  // rare class (loop open + clocked comparator + near-tuned tank = a
  // high-Q filter + slicer) can preserve single-tone SNR but is crushed
  // by the two-tone SFDR check.
  auto ev = fixtures::make_evaluator(0);
  sim::Rng rng(777);
  const auto& spec = ev.standard().spec;
  int snr_passers = 0;
  for (std::size_t i = 0; i < fig7().invalid_snr_mod.size(); ++i) {
    const Key64 k = [&] {
      sim::Rng r2(777);
      Key64 key{};
      for (std::size_t j = 0; j <= i; ++j) key = Key64::random(r2);
      return key;
    }();
    if (fig7().invalid_snr_mod[i] >= spec.min_snr_db) {
      ++snr_passers;
      // The modulator-output SNR screen is deceived; the full check
      // (receiver-output SNR and two-tone SFDR) must reject the key.
      EXPECT_FALSE(ev.evaluate(k).unlocked()) << "key " << i;
    }
  }
  (void)rng;
  EXPECT_LE(snr_passers, 3) << "SNR-screen passers must stay a rare class";
}

TEST(PaperFig7, MostInvalidKeysBelowZero) {
  const auto below = std::count_if(fig7().invalid_snr_mod.begin(),
                                   fig7().invalid_snr_mod.end(),
                                   [](double s) { return s < 0.0; });
  EXPECT_GT(below, static_cast<long>(fig7().invalid_snr_mod.size()) / 2);
}

TEST(PaperFig9, InvalidKeysCollapseAtReceiverOutput) {
  // Nearly all invalid keys fall below 10 dB at the receiver output (the
  // paper's Fig. 9 statement); the rare filter+slicer class that keeps a
  // tone is SFDR-locked (checked in the Fig. 7 test above).
  const auto below_10 = std::count_if(
      fig7().invalid_snr_rx.begin(), fig7().invalid_snr_rx.end(),
      [](double s) { return s < 10.0; });
  EXPECT_GE(below_10,
            static_cast<long>(fig7().invalid_snr_rx.size()) - 2);
}

TEST(PaperFig9, CorrectKeyUnchangedAtReceiverOutput) {
  EXPECT_GT(fig7().correct_snr_rx, 40.0);
  EXPECT_NEAR(fig7().correct_snr_rx, fig7().correct_snr_mod, 6.0);
}

TEST(PaperFig9, DeceptiveKeyCollapsesThroughDigitalSection) {
  // The paper's key #7 behavior: whatever the best invalid key scores at
  // the modulator output, the receiver output strips the deception.
  const auto& d = fig7();
  auto ev = fixtures::make_evaluator(0);
  const double rx = ev.snr_receiver_db(d.deceptive_key);
  EXPECT_LT(rx, 10.0);
  EXPECT_LT(rx, d.deceptive_snr_mod + 1.0);
}

TEST(PaperFig8, CorrectKeyOutputsBilevelBitstream) {
  const auto& c = fixtures::chip(0);
  reference::Receiver rx(rf::standard_max_3ghz(), c.pv, c.rng);
  rx.configure(lock::decode_key(c.cal.key));
  const auto in = rf::make_test_tone(rf::standard_max_3ghz(), -25.0, 4096);
  const auto cap = rx.capture_modulator(in, 2048);
  for (const double y : cap.output) {
    EXPECT_TRUE(y == 1.0 || y == -1.0);
  }
}

TEST(PaperFig8, OpenLoopUnclockedKeyOutputsAnalogWaveform) {
  // Construct the paper's deceptive-key class explicitly: loop open +
  // comparator unclocked, tank near-tuned.
  const auto& c = fixtures::chip(0);
  using L = lock::KeyLayout;
  Key64 k = c.cal.key.with_bit(L::kFeedbackEnable, false)
                .with_bit(L::kCompClockEnable, false);
  reference::Receiver rx(rf::standard_max_3ghz(), c.pv, c.rng);
  rx.configure(lock::decode_key(k));
  const auto in = rf::make_test_tone(rf::standard_max_3ghz(), -25.0, 4096);
  const auto cap = rx.capture_modulator(in, 2048);
  int analog_levels = 0;
  for (const double y : cap.output) {
    if (y != 1.0 && y != -1.0) ++analog_levels;
    EXPECT_LT(std::abs(y), 0.5) << "un-clocked swing below logic threshold";
  }
  EXPECT_EQ(analog_levels, static_cast<int>(cap.output.size()))
      << "every sample of the un-clocked output is analog";
}

TEST(PaperFig10, DeceptiveKeyShowsNoNoiseShaping) {
  // Fig. 10's visual signature is the shaped quantization-noise hump
  // rising away from the fs/4 notch. The correct key's PSD carries most
  // of the bitstream power in that out-of-band hump; the deceptive key's
  // analog waveform has no quantization noise at all, so the hump is
  // absent ("no noise shaping").
  const auto& c = fixtures::chip(0);
  using L = lock::KeyLayout;
  const Key64 deceptive = c.cal.key.with_bit(L::kFeedbackEnable, false)
                              .with_bit(L::kCompClockEnable, false);
  auto hump_to_signal = [&](const Key64& key) {
    reference::Receiver rx(rf::standard_max_3ghz(), c.pv, c.rng);
    rx.configure(lock::decode_key(key));
    const auto in =
        rf::make_test_tone(rf::standard_max_3ghz(), -25.0, 2048 + 8192);
    const auto cap = rx.capture_modulator(in, 2048);
    const dsp::Periodogram p(cap.output, rx.fs_hz());
    const double f0 = rx.fs_hz() / 4.0;
    const double half = rx.fs_hz() / 256.0;
    const double signal =
        p.tone_power(f0 + rf::default_tone_offset_hz(rx.standard())).power;
    double total = 0.0;
    for (const double b : p.power()) total += b;
    const double in_band = p.band_power(f0 - half, f0 + half);
    // Everything outside the band that is not the signal is the shaped
    // quantization noise of a working modulator.
    const double hump = total - in_band;
    return hump / std::max(signal, 1e-30);
  };
  const double correct_ratio = hump_to_signal(c.cal.key);
  const double deceptive_ratio = hump_to_signal(deceptive);
  EXPECT_GT(correct_ratio, 1.0)
      << "correct key: shaped quantization noise dominates out of band";
  EXPECT_LT(deceptive_ratio, correct_ratio / 10.0)
      << "deceptive key: no quantization-noise hump";
}

TEST(PaperFig11, LockedKeyDynamicRangeIsBroken) {
  auto ev = fixtures::make_evaluator(0);
  const auto& c = fixtures::chip(0);
  using L = lock::KeyLayout;
  const Key64 deceptive = c.cal.key.with_bit(L::kFeedbackEnable, false)
                              .with_bit(L::kCompClockEnable, false);
  int correct_above_20 = 0;
  int deceptive_above_20 = 0;
  for (double dbm = -60.0; dbm <= -20.0; dbm += 10.0) {
    if (ev.snr_receiver_db(c.cal.key, dbm) > 20.0) ++correct_above_20;
    if (ev.snr_receiver_db(deceptive, dbm) > 20.0) ++deceptive_above_20;
  }
  EXPECT_GE(correct_above_20, 3);
  EXPECT_EQ(deceptive_above_20, 0);
}

TEST(PaperFig12, LockedKeyHasMuchLowerSfdr) {
  auto ev = fixtures::make_evaluator(0);
  const auto& c = fixtures::chip(0);
  using L = lock::KeyLayout;
  const Key64 deceptive = c.cal.key.with_bit(L::kFeedbackEnable, false)
                              .with_bit(L::kCompClockEnable, false);
  const double sfdr_correct = ev.sfdr_db(c.cal.key);
  const double sfdr_deceptive = ev.sfdr_db(deceptive);
  EXPECT_GT(sfdr_correct, 40.0);
  EXPECT_LT(sfdr_deceptive, sfdr_correct - 10.0);
}

TEST(PaperSecVIB, BinaryWeightedCapsHaveUniqueSubKey) {
  // "capacitor arrays are binary-weighted, thus for a desired capacitor
  // value there is a unique sub-key": distinct codes give distinct C.
  const rf::LcTank tank(fixtures::chip(0).pv);
  std::vector<double> caps;
  for (std::uint32_t c = 0; c < 64; ++c) {
    caps.push_back(tank.capacitance(c, 17));
  }
  std::sort(caps.begin(), caps.end());
  EXPECT_TRUE(std::adjacent_find(caps.begin(), caps.end()) == caps.end());
}

}  // namespace
