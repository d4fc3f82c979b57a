// Bias-programmable blocks of the BP RF sigma-delta modulator (Fig. 6):
// input transconductor Gmin, pre-amplifier, clocked comparator, feedback
// DAC, fractional loop delay, and the calibration output buffer.
//
// Every block exposes a 6-bit (4-bit for delay/buffer) bias code. The code
// maps to a bias multiplier m in [0.25, 1.75]; gain scales with m while
// noise and offsets improve or degrade with it, so each block has a
// chip-dependent sweet spot the calibration must find — these codes are
// the key bits of the locking scheme. The structs below hold each block's
// design constants; every code -> parameter map is rf::lane_constants
// (rf/lane_constants.h).
#pragma once

#include <cstddef>
#include <cstdint>

namespace analock::rf {

/// Bias-code to bias-current multiplier: code 0..63 -> 0.25..1.75,
/// mid-scale (code 32) close to nominal.
[[nodiscard]] double bias_multiplier(std::uint32_t code);

/// Inverse: the code whose multiplier is nearest `m`.
[[nodiscard]] std::uint32_t bias_code_for_multiplier(double m);

/// Odd memoryless soft nonlinearity with unit small-signal gain and the
/// given IIP3 amplitude; monotone (clamped past its inflection). Inline:
/// rf::ReceiverBatch and the scalar reference in tests/ step with it.
// analock: thread_safe -- stateless
[[nodiscard]] inline double cubic_soft(double x, double iip3_amplitude) {
  // y = x - 4 x^3 / (3 A^2): unit slope at 0, IIP3 amplitude A. Clamp past
  // the inflection point x* = A/2 to keep the transfer monotone.
  const double a = iip3_amplitude;
  const double x_star = a / 2.0;
  const double y_star = x_star - 4.0 * x_star * x_star * x_star / (3.0 * a * a);
  if (x > x_star) return y_star;
  if (x < -x_star) return -y_star;
  return x - 4.0 * x * x * x / (3.0 * a * a);
}

/// Input transconductor Gmin: converts the VGLNA output voltage to the
/// modulator's normalized loop signal, gm * cubic_soft(v, IIP3) plus
/// noise. Turning it off (calibration step 3) disconnects the RF input.
/// Gain and linearity scale with the bias multiplier m, noise as 1/sqrt(m).
struct Transconductor {
  /// Nominal transconductance: volts at the input map to modulator
  /// full-scale units. 2.0 places a -25 dBm / 20 dB-VGLNA-gain tone at
  /// ~0.36 FS.
  static constexpr double kGmNominal = 2.0;
  static constexpr double kNoiseRmsNominal = 0.008;  ///< FS units per sample
  static constexpr double kIip3VoltsNominal = 2.4;
};

/// Pre-amplifier ahead of the comparator: gain * x plus noise, clipped
/// at +/-kRail.
struct PreAmplifier {
  static constexpr double kGainNominal = 4.0;
  static constexpr double kNoiseRmsNominal = 0.004;
  static constexpr double kRail = 8.0;
};

/// Clocked regenerative comparator. With its clock deactivated
/// (calibration step 1 / the paper's deceptive key) it degenerates into an
/// analog buffer that passes the loop signal un-digitized,
/// kBufferRail * tanh(v). More bias current gives faster regeneration and
/// a smaller offset, but overdriving injects kickback noise, so the noise
/// has a chip-dependent sweet spot.
struct Comparator {
  static constexpr double kNoiseRmsNominal = 0.008;
  static constexpr double kKickbackNoise = 0.012;
  /// Analog output swing when un-clocked: without clocked regeneration the
  /// latch never reaches full logic levels, so its waveform stays below
  /// the digital section's input threshold — the reason the paper's
  /// "deceptive" key collapses at the receiver output (Fig. 9).
  static constexpr double kBufferRail = 0.45;
};

/// One-bit feedback DAC. The digital input is re-sliced (it is a logic
/// cell), so an analog comparator output still produces +/-1 decisions at
/// the DAC; bias errors show up as level asymmetry and ISI-like noise.
struct FeedbackDac {
  static constexpr double kNoiseRmsNominal = 0.008;
  /// Extra noise per unit of bias deviation (ISI / settling error).
  static constexpr double kNoisePerDelta = 0.080;
  /// Level asymmetry per unit of bias deviation.
  static constexpr double kAsymmetryPerDelta = 0.150;
};

/// Fractional delay line in the DAC feedback path. The loop sees
/// 1 structural sample (the decision is pushed after it is taken) plus
/// this line's delay of parasitic (process) + code * kStepSamples,
/// linearly interpolated; the loop is designed for 2.0 samples total, so
/// the correct code is chip-dependent (calibration step 11).
struct FractionalDelayLine {
  static constexpr std::size_t kDepth = 8;
  static constexpr double kStepSamples = 1.0 / 15.0;
};

/// Output buffer used during calibration to drive the off-chip load
/// (removed from the signal path in normal operation, step 2): a 4-bit
/// gain code, noise, and clipping at +/-kRail.
struct OutputBuffer {
  static constexpr double kRail = 1.5;
  static constexpr double kNoiseRms = 0.002;
};

}  // namespace analock::rf
