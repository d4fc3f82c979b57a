// analock: bit_exact
#include "rf/lane_constants.h"

#include <algorithm>
#include <cmath>

#include "rf/bp_sigma_delta.h"
#include "rf/lc_tank.h"
#include "rf/sd_blocks.h"
#include "sim/units.h"

namespace analock::rf {

namespace {

/// VGLNA gain level table: code 0..15 spans -9..+36 dB in 3 dB steps.
[[nodiscard]] double nominal_gain_db(std::uint32_t code) {
  return -9.0 + 3.0 * static_cast<double>(code);
}

}  // namespace

LaneConstants lane_constants(const Standard& standard,
                             const sim::ProcessVariation& process,
                             const ReceiverConfig& config) {
  const double fs_hz = standard.fs_hz();
  const ModulatorConfig& mc = config.modulator;
  LaneConstants k;

  // VGLNA: the total gain splits evenly over the five stages; the
  // input-referred noise follows the noise figure, which improves with
  // gain (high gain -> front-end dominated, low gain -> the feedback
  // network dominates).
  {
    const std::uint32_t code = config.vglna_gain & 0xFu;
    const double total_db = nominal_gain_db(code) + process.vglna_gain_db_err;
    const double stage_db = total_db / static_cast<double>(Vglna::kNumStages);
    const double g = sim::from_db20(stage_db);
    Vglna::Stage& stage = k.front_end.vglna_stage;
    stage.gain = g;
    // y = g x + a3 x^3 with IIP3 amplitude A: a3 = -4 g / (3 A^2).
    stage.a3 = -4.0 * g /
               (3.0 * Vglna::kStageIip3Volts * Vglna::kStageIip3Volts);
    stage.x_peak = std::sqrt(stage.gain / (-3.0 * stage.a3));
    stage.y_peak = stage.gain * stage.x_peak +
                   stage.a3 * stage.x_peak * stage.x_peak * stage.x_peak;
    const double nf = std::max(1.0, 3.0 + 0.4 * static_cast<double>(15 - code) +
                                        process.vglna_nf_db_err);
    k.front_end.vglna_rms = sim::thermal_noise_rms_volts(fs_hz / 2.0, nf);
  }

  // Input transconductor: gain and linearity grow with bias current,
  // noise falls as 1/sqrt(m).
  {
    const double m = bias_multiplier(mc.gmin_bias);
    k.front_end.gm_rms = Transconductor::kNoiseRmsNominal / std::sqrt(m);
    k.front_end.gm = Transconductor::kGmNominal * (1.0 + process.gmin_rel) * m;
    k.front_end.gm_iip3 = Transconductor::kIip3VoltsNominal * std::sqrt(m);
  }

  k.gmin_enable = mc.gmin_enable;
  k.feedback_enable = mc.feedback_enable;
  k.comp_clock_enable = mc.comp_clock_enable;
  k.buffer_in_path = mc.buffer_in_path;
  k.test_mux = static_cast<std::uint8_t>(mc.test_mux & 3u);

  // Tank: both resonators see the same codes, resonator 2 through a small
  // fabrication mismatch in its capacitor array (theta scales as
  // 1/sqrt(C)).
  {
    const LcTank tank(process);
    const double theta1 = tank.pole_angle(mc.cap_coarse, mc.cap_fine, fs_hz);
    const double r1 =
        tank.pole_radius(mc.cap_coarse, mc.cap_fine, mc.q_enh, fs_hz);
    const double mismatch = 1.0 - 0.5 * tank.mismatch_rel();
    k.res1_cos = std::cos(theta1);
    k.res1_radius = r1;
    k.res2_cos = std::cos(theta1 * mismatch);
    k.res2_radius = r1;
  }

  {
    const double m = bias_multiplier(mc.preamp_bias);
    k.preamp_rms = PreAmplifier::kNoiseRmsNominal / std::sqrt(m);
    k.preamp_gain =
        PreAmplifier::kGainNominal * (1.0 + process.preamp_gain_rel) * m;
  }

  // Comparator: more bias current -> faster regeneration, smaller offset;
  // overdriving injects kickback noise.
  {
    const double m = bias_multiplier(mc.comp_bias);
    k.comp_offset = process.comparator_offset / m;
    const double thermal = Comparator::kNoiseRmsNominal *
                           (1.0 + process.comparator_noise_rel) / std::sqrt(m);
    const double kickback = Comparator::kKickbackNoise *
                            std::max(0.0, m - 1.0) * std::max(0.0, m - 1.0);
    k.comp_rms = thermal + kickback;
  }

  // Feedback DAC: deviation from the unity-feedback design point drives
  // level asymmetry and settling (ISI-like) noise.
  {
    const double gain =
        (1.0 + process.dac_gain_rel) * bias_multiplier(mc.dac_bias);
    const double delta = std::abs(gain - 1.0);
    const double asym = FeedbackDac::kAsymmetryPerDelta * (gain - 1.0);
    k.dac_plus = gain * (1.0 + asym);
    k.dac_minus = -gain * (1.0 - asym);
    k.dac_rms =
        FeedbackDac::kNoiseRmsNominal + FeedbackDac::kNoisePerDelta * delta;
  }

  k.delay_samples = process.loop_delay_parasitic +
                    static_cast<double>(mc.loop_delay & 15u) *
                        FractionalDelayLine::kStepSamples;

  // 4-bit buffer code: 0..15 -> 0.25..1.75 (same span as the 6-bit biases).
  k.buffer_gain = 0.25 + 1.5 * static_cast<double>(mc.out_buffer & 15u) / 15.0;
  k.buffer_rms = OutputBuffer::kNoiseRms;
  return k;
}

}  // namespace analock::rf
