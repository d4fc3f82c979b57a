// Behavioral checks of the BP RF sigma-delta modulator: the nominal
// configuration must deliver the paper's >40 dB SNR, the oscillation mode
// must behave as calibration expects, and the characteristic invalid-key
// failure modes must actually break the performance.
#include <gtest/gtest.h>

#include <cmath>

#include "dsp/spectrum.h"
#include "dsp/tonegen.h"
#include "reference_receiver.h"
#include "rf/bp_sigma_delta.h"
#include "rf/receiver.h"
#include "rf/standards.h"
#include "sim/process.h"
#include "sim/rng.h"

namespace {

using namespace analock;

/// Hand-derived correct configuration for the *nominal* chip at 3 GHz.
rf::ModulatorConfig nominal_correct_config(const rf::Standard& std_mode,
                                           const sim::ProcessVariation& pv) {
  rf::ModulatorConfig cfg;
  const rf::LcTank tank(pv);
  // Capacitance that resonates at F0 = fs/4.
  const double f0 = std_mode.f0_hz;
  const double c_needed =
      1.0 / (tank.inductance() * std::pow(2.0 * M_PI * f0, 2.0));
  const double c_excess = c_needed - tank.fixed_cap();
  const double coarse =
      std::floor(c_excess / rf::LcTank::kCoarseStepFarad);
  cfg.cap_coarse = static_cast<std::uint32_t>(std::max(0.0, coarse));
  const double resid =
      c_needed - tank.capacitance(cfg.cap_coarse, 0);
  cfg.cap_fine = static_cast<std::uint32_t>(std::clamp(
      std::round(resid / rf::LcTank::kFineStepFarad), 0.0, 255.0));
  // Largest -Gm code that does not oscillate.
  cfg.q_enh = 0;
  for (std::uint32_t q = 0; q <= rf::LcTank::kQEnhMax; ++q) {
    if (!tank.oscillates(q)) cfg.q_enh = q;
  }
  // Bias codes at the chip's unity-multiplier points.
  cfg.gmin_bias = rf::bias_code_for_multiplier(1.0 / (1.0 + pv.gmin_rel));
  cfg.dac_bias = rf::bias_code_for_multiplier(1.0 / (1.0 + pv.dac_gain_rel));
  cfg.preamp_bias =
      rf::bias_code_for_multiplier(1.0 / (1.0 + pv.preamp_gain_rel));
  cfg.comp_bias = rf::bias_code_for_multiplier(1.2);
  // Loop delay: parasitic + code/15 = 1.0 sample (plus 1 structural = 2).
  cfg.loop_delay = static_cast<std::uint32_t>(std::clamp(
      std::round((1.0 - pv.loop_delay_parasitic) * 15.0), 0.0, 15.0));
  cfg.feedback_enable = true;
  cfg.comp_clock_enable = true;
  cfg.gmin_enable = true;
  cfg.buffer_in_path = false;
  cfg.test_mux = 0;
  return cfg;
}

/// Runs the modulator on a -25 dBm in-band tone (after a 20 dB VGLNA
/// stand-in gain) and returns the in-band SNR at OSR 64.
double modulator_snr_db(const rf::ModulatorConfig& cfg,
                        const sim::ProcessVariation& pv, double input_scale,
                        std::uint64_t seed = 42) {
  const rf::Standard& mode = rf::standard_max_3ghz();
  sim::Rng rng(seed);
  reference::BpSigmaDelta mod(mode, pv, rng);
  mod.configure(cfg);
  const double offset = rf::default_tone_offset_hz(mode);
  auto gen = dsp::single_tone_dbm(mode.f0_hz + offset, -25.0, mode.fs_hz());
  const std::vector<double> rf_in = gen.generate(2048 + 8192);
  std::vector<double> output;
  for (std::size_t i = 0; i < rf_in.size(); ++i) {
    const double y = mod.step(input_scale * rf_in[i]);
    if (i >= 2048) output.push_back(y);
  }
  dsp::Periodogram p(output, mode.fs_hz());
  const auto snr = dsp::measure_snr_osr(p, mode.f0_hz + offset,
                                        mode.fs_hz() / 4.0, mode.osr);
  return snr.snr_db;
}

constexpr double kVglnaStandInGain = 10.0;  // 20 dB

TEST(BpSigmaDelta, NominalConfigMeetsPaperSnr) {
  const auto pv = sim::ProcessVariation::nominal();
  const auto cfg = nominal_correct_config(rf::standard_max_3ghz(), pv);
  const double snr = modulator_snr_db(cfg, pv, kVglnaStandInGain);
  EXPECT_GT(snr, 40.0) << "correct key must exceed the paper's 40 dB";
  EXPECT_LT(snr, 90.0) << "behavioral noise budget should cap the SNR";
}

TEST(BpSigmaDelta, DetunedCoarseCapKillsSnr) {
  const auto pv = sim::ProcessVariation::nominal();
  auto cfg = nominal_correct_config(rf::standard_max_3ghz(), pv);
  cfg.cap_coarse = 200;  // tank far below fs/4
  const double snr = modulator_snr_db(cfg, pv, kVglnaStandInGain);
  EXPECT_LT(snr, 25.0) << "detuned tank must fall far below the 40 dB spec";
}

TEST(BpSigmaDelta, OpenLoopUnclockedComparatorIsDeceptive) {
  // The paper's invalid key #7: loop open + comparator as buffer. The
  // modulator-output SNR stays deceptively high because nothing is
  // quantized.
  const auto pv = sim::ProcessVariation::nominal();
  auto cfg = nominal_correct_config(rf::standard_max_3ghz(), pv);
  cfg.feedback_enable = false;
  cfg.comp_clock_enable = false;
  const double snr = modulator_snr_db(cfg, pv, kVglnaStandInGain);
  EXPECT_GT(snr, 15.0) << "deceptive key should look plausible";
}

TEST(BpSigmaDelta, MaxQEnhancementOscillates) {
  const auto pv = sim::ProcessVariation::nominal();
  auto cfg = nominal_correct_config(rf::standard_max_3ghz(), pv);
  cfg.q_enh = rf::LcTank::kQEnhMax;
  cfg.gmin_enable = false;
  cfg.feedback_enable = false;
  const rf::Standard& mode = rf::standard_max_3ghz();
  sim::Rng rng(7);
  EXPECT_TRUE(rf::LcTank(pv).oscillates(cfg.q_enh));
  reference::BpSigmaDelta mod(mode, pv, rng);
  mod.configure(cfg);
  // Free-run: the resonator states must grow to a limit cycle from noise.
  for (int i = 0; i < 4096; ++i) mod.step(0.0);
  double rms = 0.0;
  for (int i = 0; i < 1024; ++i) {
    mod.step(0.0);
    rms += mod.resonator2_state() * mod.resonator2_state();
  }
  rms = std::sqrt(rms / 1024.0);
  EXPECT_GT(rms, 1.0) << "oscillation mode must rail the resonators";
}

TEST(BpSigmaDelta, WrongLoopDelayDegrades) {
  const auto pv = sim::ProcessVariation::nominal();
  auto cfg = nominal_correct_config(rf::standard_max_3ghz(), pv);
  const double snr_good = modulator_snr_db(cfg, pv, kVglnaStandInGain);
  cfg.loop_delay = 0;
  const double snr_bad = modulator_snr_db(cfg, pv, kVglnaStandInGain);
  EXPECT_LT(snr_bad, snr_good - 3.0);
}

}  // namespace
