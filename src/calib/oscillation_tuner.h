// Calibration steps 5-7: put the LC loop filter in oscillation mode
// (-Gm at maximum, loop open, input off), tune the Cc / Cf capacitor
// arrays until the oscillation frequency equals the desired center
// frequency fs/4 (step 6), then back -Gm off until the oscillation
// vanishes (step 7). The fine array is re-tuned afterwards at a gentle
// overdrive just above the threshold step 7 found.
//
// The chip is a one-lane rf::ReceiverBatch: every reading configures it
// and captures, and its noise streams continue from one capture to the
// next exactly as a scalar chip's do across its reset (receiver_batch.h,
// property 2), so each reading is bit-identical to the scalar chip's. A
// reading therefore depends on every capture before it: the tuner's
// results hold only for the same captures, with the same codes and
// lengths, in the same order.
//
// The three capacitor searches (coarse array, fine array, fine retune)
// run through one routine, search_code() in the .cpp: bisect [0, max] for
// the smallest code whose frequency is at or below the target, read that
// code, then read the code below it and keep it only when it lands
// strictly closer. The capture lengths and thresholds are the constants
// below.
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

/// Comparator hysteresis of the frequency counter, in output units.
inline constexpr double kCounterHysteresis = 0.05;

/// Hysteresis zero-crossing frequency counter (an ATE frequency counter).
[[nodiscard]] FrequencyMeasurement measure_frequency(
    std::span<const double> capture, double fs_hz);

class OscillationTuner {
 public:
  /// Samples run before a reading is kept, at -Gm maximum or during the
  /// step-7 walk.
  static constexpr std::size_t kSettle = 4096;
  /// Samples run before a gentle-overdrive reading is kept: near the
  /// threshold the oscillation builds up slowly.
  static constexpr std::size_t kGentleSettle = 32768;
  /// Samples the frequency counter reads.
  static constexpr std::size_t kCountWindow = 32768;
  /// Samples a step-7 oscillation check reads.
  static constexpr std::size_t kBackOffWindow = 2048;
  /// RMS at the observation tap above which the tank counts as
  /// oscillating (a railed limit cycle sits near the buffer swing).
  static constexpr double kOscillationRms = 0.10;

  /// Step 6.
  struct Result {
    std::uint32_t cap_coarse = 0;
    std::uint32_t cap_fine = 0;
    double achieved_hz = 0.0;
    bool converged = false;
  };

  /// Step 7.
  struct BackOff {
    std::uint32_t q_enh = 0;        ///< chosen code (highest non-oscillating)
    std::uint32_t q_threshold = 0;  ///< first oscillating code above it
    bool converged = false;
  };

  /// Operates on a chip instance through its public capture interface —
  /// exactly what off-chip ATE calibration can do.
  explicit OscillationTuner(rf::ReceiverBatch& chip) : chip_(&chip) {}

  /// Measures the oscillation frequency with the given capacitor codes
  /// (all other settings forced to the calibration state: -Gm max, loop
  /// open, Gmin off, comparator as buffer, output buffer in path).
  FrequencyMeasurement measure(std::uint32_t cap_coarse,
                               std::uint32_t cap_fine);

  /// Same measurement at an explicit -Gm code after kGentleSettle: a
  /// gentle overdrive (q just above the oscillation threshold) weakens
  /// the injection pull toward fs/4 and sharpens the frequency
  /// discrimination for the fine retune, at the cost of a slow
  /// oscillation build-up.
  FrequencyMeasurement measure_at_q(std::uint32_t cap_coarse,
                                    std::uint32_t cap_fine,
                                    std::uint32_t q_code);

  /// True when the tank oscillates at this -Gm code (capacitors fixed at
  /// the codes step 6 found).
  bool oscillates(std::uint32_t cap_coarse, std::uint32_t cap_fine,
                  std::uint32_t q_code);

  /// Step 6: searches the coarse array, then the fine array, driving the
  /// oscillation to `target_hz` (higher capacitor code -> lower
  /// frequency).
  Result tune(double target_hz);

  /// Step 7: walks q down from the maximum until oscillation stops.
  BackOff back_off(std::uint32_t cap_coarse, std::uint32_t cap_fine);

  /// Re-runs the fine-array search at a gentle -Gm code (after step 7 has
  /// located the oscillation threshold). Returns the refined fine code.
  std::uint32_t fine_tune(std::uint32_t cap_coarse, double target_hz,
                          std::uint32_t q_code);

  /// Readings taken since construction (the paper's cost unit).
  [[nodiscard]] std::size_t readings() const { return readings_; }

 private:
  /// One oscillation-mode reading: programs oscillation_mode_config(
  /// cap_coarse, cap_fine, q_enh), runs `settle` + `window` zero-input
  /// samples on the shared pool and returns the last `window` outputs.
  std::vector<double> capture(std::uint32_t cap_coarse,
                              std::uint32_t cap_fine, std::uint32_t q_enh,
                              std::size_t settle, std::size_t window);

  rf::ReceiverBatch* chip_;
  std::size_t readings_ = 0;
  /// The all-zero input of every reading, grown to the longest one.
  std::vector<double> zeros_;
};

/// The modulator configuration used during oscillation-mode calibration.
[[nodiscard]] rf::ModulatorConfig oscillation_mode_config(
    std::uint32_t cap_coarse, std::uint32_t cap_fine,
    std::uint32_t q_enh = 63);

}  // namespace analock::calib
