// Calibration steps 5-6: put the LC loop filter in oscillation mode
// (-Gm at maximum, loop open, input off) and tune the Cc / Cf capacitor
// arrays until the oscillation frequency equals the desired center
// frequency fs/4.
//
// The chip is a one-lane rf::ReceiverBatch: every measurement configures
// it and captures, and its noise streams continue from one capture to
// the next exactly as a scalar rf::Receiver's do across reset(), so each
// reading is bit-identical to the scalar chip's.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "rf/receiver_batch.h"

namespace analock::calib {

/// Frequency-counter measurement of an oscillating capture.
struct FrequencyMeasurement {
  double freq_hz = 0.0;  ///< estimated oscillation frequency
  double rms = 0.0;      ///< capture RMS (oscillation-present indicator)
};

/// Hysteresis zero-crossing frequency counter (an ATE frequency counter).
[[nodiscard]] FrequencyMeasurement measure_frequency(
    std::span<const double> capture, double fs_hz, double hysteresis = 0.05);

class OscillationTuner {
 public:
  struct Options {
    std::size_t settle = 4096;    ///< samples before counting starts
    std::size_t measure = 32768;  ///< samples counted
    double hysteresis = 0.05;
  };

  struct Result {
    std::uint32_t cap_coarse = 0;
    std::uint32_t cap_fine = 0;
    double achieved_hz = 0.0;
    bool converged = false;
    std::size_t measurements = 0;
  };

  /// Operates on a chip instance through its public capture interface —
  /// exactly what off-chip ATE calibration can do.
  explicit OscillationTuner(rf::ReceiverBatch& chip)
      : OscillationTuner(chip, Options{}) {}
  OscillationTuner(rf::ReceiverBatch& chip, Options options);

  /// Measures the oscillation frequency with the given capacitor codes
  /// (all other settings forced to the calibration state: -Gm max, loop
  /// open, Gmin off, comparator as buffer, output buffer in path).
  FrequencyMeasurement measure(std::uint32_t cap_coarse,
                               std::uint32_t cap_fine);

  /// Same measurement at an explicit -Gm code and settle time: a gentle
  /// overdrive (q just above the oscillation threshold) weakens the
  /// injection pull toward fs/4 and sharpens the frequency discrimination
  /// for the fine retune, at the cost of a slow oscillation build-up.
  FrequencyMeasurement measure_at_q(std::uint32_t cap_coarse,
                                    std::uint32_t cap_fine,
                                    std::uint32_t q_code,
                                    std::size_t settle);

  /// Re-runs the fine-array search at a gentle -Gm code (after step 7 has
  /// located the oscillation threshold). Returns the refined fine code.
  std::uint32_t fine_tune(std::uint32_t cap_coarse, double target_hz,
                          std::uint32_t q_code);

  /// Binary-searches the coarse array, then the fine array, driving the
  /// oscillation to `target_hz` (higher capacitor code -> lower
  /// frequency).
  Result tune(double target_hz);

  [[nodiscard]] std::size_t measurements() const { return measurements_; }

 private:
  rf::ReceiverBatch* chip_;
  Options options_;
  std::size_t measurements_ = 0;
};

/// The modulator configuration used during oscillation-mode calibration.
[[nodiscard]] rf::ModulatorConfig oscillation_mode_config(
    std::uint32_t cap_coarse, std::uint32_t cap_fine,
    std::uint32_t q_enh = 63);

/// One oscillation-mode reading of the one-lane `chip`: programs
/// oscillation_mode_config(cap_coarse, cap_fine, q_enh), runs `settle` +
/// `measure` zero-input samples on the shared pool and returns the last
/// `measure` outputs.
[[nodiscard]] std::vector<double> capture_oscillation(
    rf::ReceiverBatch& chip, std::uint32_t cap_coarse,
    std::uint32_t cap_fine, std::uint32_t q_enh, std::size_t settle,
    std::size_t measure);

}  // namespace analock::calib
