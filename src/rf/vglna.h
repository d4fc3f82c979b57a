// Variable-Gain Low Noise Amplifier (paper Fig. 5).
//
// Five cascaded gain stages with resistive feedback; a 4-bit configuration
// word selects one of 16 gain levels, adapting the receiver's sensitivity
// and dynamic range to the target standard. Each stage carries a
// third-order nonlinearity and rail clipping, so wrong gain codes either
// bury the signal in noise (too little gain) or compress it (too much) —
// the Fig. 11 behavior. The gain code -> stage and noise map is
// rf::lane_constants (rf/lane_constants.h).
#pragma once

#include <algorithm>

namespace analock::rf {

struct Vglna {
  static constexpr unsigned kNumStages = 5;
  static constexpr unsigned kNumGainLevels = 16;
  /// Supply rail limiting every stage output (volts).
  static constexpr double kRailVolts = 1.2;
  /// Per-stage input IIP3 amplitude (volts peak). Fixed stage linearity
  /// makes the cascade's input-referred IIP3 degrade as gain rises.
  static constexpr double kStageIip3Volts = 2.4;

  /// One gain stage: y = clip(g*x + a3*x^3) with a3 set by the stage
  /// IIP3. The fold-back clamp bounds (x_peak, y_peak) are precomputed
  /// with the gain; `process` is branch-predictable and inline so
  /// rf::ReceiverBatch and the scalar reference in tests/ share one
  /// definition. The cascade adds its input noise, then runs all five
  /// stages (identical at a given code).
  struct Stage {
    double gain = 1.0;
    double a3 = 0.0;
    double x_peak = 0.0;
    double y_peak = 0.0;

    [[nodiscard]] double process(double x) const {
      double y = gain * x + a3 * x * x * x;
      // With a pure cubic the transfer folds back beyond the IIP3
      // amplitude; clamp to the monotone region before rail clipping.
      if (x > x_peak) y = y_peak;
      if (x < -x_peak) y = -y_peak;
      return std::clamp(y, -kRailVolts, kRailVolts);
    }
  };
};

}  // namespace analock::rf
