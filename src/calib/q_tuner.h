// Calibration step 7: with the tank tuned, reduce the Q-enhancement
// transconductor -Gm gradually from its maximum until the oscillation
// vanishes — leaving the highest non-oscillating Q the chip supports.
//
// Like the OscillationTuner it drives a one-lane rf::ReceiverBatch whose
// noise streams continue across captures, bit-identical to the scalar
// chip.
#pragma once

#include <cstdint>

#include "rf/receiver_batch.h"

namespace analock::calib {

class QTuner {
 public:
  struct Options {
    std::size_t settle = 4096;
    std::size_t measure = 2048;
    /// RMS at the observation tap above which the tank counts as
    /// oscillating (a railed limit cycle sits near the buffer swing).
    double oscillation_rms = 0.10;
  };

  struct Result {
    std::uint32_t q_enh = 0;       ///< chosen code (highest non-oscillating)
    std::uint32_t q_threshold = 0; ///< first oscillating code above it
    std::size_t measurements = 0;
    bool converged = false;
  };

  explicit QTuner(rf::ReceiverBatch& chip) : QTuner(chip, Options{}) {}
  QTuner(rf::ReceiverBatch& chip, Options options);

  /// True when the tank oscillates at this -Gm code (capacitors fixed at
  /// the codes found by the OscillationTuner).
  bool oscillates(std::uint32_t cap_coarse, std::uint32_t cap_fine,
                  std::uint32_t q_code);

  /// Walks q down from the maximum until oscillation stops.
  Result tune(std::uint32_t cap_coarse, std::uint32_t cap_fine);

 private:
  rf::ReceiverBatch* chip_;
  Options options_;
  std::size_t measurements_ = 0;
};

}  // namespace analock::calib
