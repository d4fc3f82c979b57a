// Tunable LC bandpass tank of the sigma-delta loop filter (paper Fig. 6).
//
// Physical model: resonance f_res = 1/(2*pi*sqrt(L*C_total)) with
// C_total = C_fixed + coarse_code*dCc + fine_code*dCf (binary-weighted
// arrays Cc and Cf), and effective quality factor
// 1/Q_eff = 1/Q_intrinsic - q_code * kQ set by the Q-enhancement
// transconductor (-Gm). Driving 1/Q_eff negative puts the tank in
// oscillation — exactly the mechanism calibration step 5 uses.
//
// The discrete-time image of the tank is a two-pole resonator with pole
// angle theta = 2*pi*f_res/fs and radius r = exp(-theta/(2*Q_eff));
// r >= 1 means a growing (oscillating) response.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "sim/process.h"

namespace analock::rf {

/// Element values of the tunable tank and the code-to-parameter mapping.
class LcTank {
 public:
  static constexpr double kInductanceNominalHenry = 1.0e-9;
  /// Small fixed capacitance leaves tuning headroom for slow-corner chips
  /// (the fixed cap spreads with sigma ~12%; the array must always reach
  /// the 3 GHz target from above).
  static constexpr double kFixedCapNominalFarad = 1.8e-12;
  /// Coarse LSB: the 8-bit array spans the full 1.5-3.0 GHz range over all
  /// process corners.
  static constexpr double kCoarseStepFarad = 52.0e-15;
  /// Fine LSB: 1/200 of a coarse step; the 8-bit array covers ~1.3 coarse
  /// steps so any residue of the coarse search is reachable.
  static constexpr double kFineStepFarad = kCoarseStepFarad / 200.0;
  /// Q-enhancement strength: 1/Q decreases by kQEnhStep per -Gm code.
  static constexpr double kQEnhStep = 1.0 / 192.0;
  static constexpr std::uint32_t kCoarseMax = 255;
  static constexpr std::uint32_t kFineMax = 255;
  static constexpr std::uint32_t kQEnhMax = 63;

  explicit LcTank(const sim::ProcessVariation& process);

  /// Total tank capacitance for the given codes (farads), on this chip.
  [[nodiscard]] double capacitance(std::uint32_t coarse,
                                   std::uint32_t fine) const;

  /// Tank resonance frequency for the given codes (Hz).
  [[nodiscard]] double resonance_hz(std::uint32_t coarse,
                                    std::uint32_t fine) const;

  /// Inverse effective quality factor for a -Gm code; negative values mean
  /// the tank oscillates.
  [[nodiscard]] double inv_q_effective(std::uint32_t q_code) const;

  /// True if the -Gm code overcompensates the tank loss.
  [[nodiscard]] bool oscillates(std::uint32_t q_code) const;

  /// Discrete-time pole angle for the codes at sample rate fs.
  [[nodiscard]] double pole_angle(std::uint32_t coarse, std::uint32_t fine,
                                  double fs_hz) const;

  /// Discrete-time pole radius for the codes at sample rate fs (>1 when
  /// oscillating).
  [[nodiscard]] double pole_radius(std::uint32_t coarse, std::uint32_t fine,
                                   std::uint32_t q_code, double fs_hz) const;

  /// Resonator-2 sees the same codes through a small fabrication mismatch.
  [[nodiscard]] double mismatch_rel() const { return mismatch_rel_; }

  [[nodiscard]] double inductance() const { return inductance_; }
  [[nodiscard]] double fixed_cap() const { return fixed_cap_; }

 private:
  double inductance_;
  double fixed_cap_;
  double q_intrinsic_;
  double mismatch_rel_;
};

/// Odd, memoryless, C1-continuous soft limiter: exactly linear up to
/// knee = rail/2, then compresses smoothly toward +/-rail. Used for the
/// resonator state saturation: a hard clamp would lock free-running
/// oscillations onto integer-period limit cycles and blind the
/// calibration frequency counter, while this describing-function-friendly
/// limiter preserves the oscillation frequency. Inline: rf::ReceiverBatch
/// and the scalar reference in tests/ step with it.
[[nodiscard]] inline double soft_rail(double x, double rail) {
  const double knee = 0.5 * rail;
  const double mag = std::abs(x);
  if (mag <= knee) return x;
  const double span = rail - knee;
  const double compressed = knee + span * std::tanh((mag - knee) / span);
  return x < 0.0 ? -compressed : compressed;
}

/// Two-pole discrete-time resonator:
///   s[n] = 2 r_eff cos(theta) s[n-1] - r_eff^2 s[n-2] + x[n]
/// with r_eff reduced as the state envelope grows past half the rail —
/// the discrete image of -Gm transconductor saturation. An overdriven
/// (r > 1) tank therefore amplitude-stabilizes into a quasi-sinusoidal
/// oscillation at the tank frequency instead of slamming a hard limiter
/// (which would alias-lock the oscillation onto integer fractions of fs
/// and blind the calibration frequency counter). The same mechanism
/// collapses the loop-filter Q under input overload.
struct Resonator {
  /// Rail for state saturation, in units of modulator full scale.
  static constexpr double kStateRail = 8.0;
  /// Envelope (in state units) above which the -Gm compression engages.
  static constexpr double kAgcKnee = 4.0;
  /// Radius reduction per unit of (envelope^2 - knee^2)/rail^2.
  static constexpr double kAgcStrength = 0.3;

  /// The step kernel on explicit state: advances (s1, s2) = (s[n-1],
  /// s[n-2]) one sample with input x and returns the new state s[n].
  /// The pole parameters of a configured tank are rf::lane_constants'.
  // analock: thread_safe -- pure on its explicit-state arguments
  static double advance(double& s1, double& s2, double cos_theta, double r,
                        double x) {
    // -Gm saturation: the effective radius shrinks once the state
    // envelope exceeds the AGC knee, so growth self-limits
    // quasi-linearly.
    double r_eff = r;
    const double env_sq = s1 * s1 + s2 * s2;
    const double knee_sq = kAgcKnee * kAgcKnee;
    if (env_sq > knee_sq) {
      const double excess = (env_sq - knee_sq) / (kStateRail * kStateRail);
      r_eff = r * std::max(0.5, 1.0 - kAgcStrength * excess);
    }
    const double a1 = 2.0 * r_eff * cos_theta;
    const double a2 = r_eff * r_eff;
    const double s = soft_rail(a1 * s1 - a2 * s2 + x, kStateRail);
    s2 = s1;
    s1 = s;
    return s;
  }
};

}  // namespace analock::rf
