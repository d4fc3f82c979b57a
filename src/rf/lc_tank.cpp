#include "rf/lc_tank.h"

#include <algorithm>
#include <cmath>
#include <numbers>

namespace analock::rf {

LcTank::LcTank(const sim::ProcessVariation& process)
    : inductance_(kInductanceNominalHenry * (1.0 + process.tank_l_rel)),
      fixed_cap_(kFixedCapNominalFarad * (1.0 + process.tank_c_rel)),
      q_intrinsic_(process.tank_q_intrinsic),
      mismatch_rel_(process.tank_mismatch_rel) {}

double LcTank::capacitance(std::uint32_t coarse, std::uint32_t fine) const {
  return fixed_cap_ + static_cast<double>(coarse & kCoarseMax) * kCoarseStepFarad +
         static_cast<double>(fine & kFineMax) * kFineStepFarad;
}

double LcTank::resonance_hz(std::uint32_t coarse, std::uint32_t fine) const {
  const double c = capacitance(coarse, fine);
  return 1.0 / (2.0 * std::numbers::pi * std::sqrt(inductance_ * c));
}

double LcTank::inv_q_effective(std::uint32_t q_code) const {
  return 1.0 / q_intrinsic_ -
         static_cast<double>(q_code & kQEnhMax) * kQEnhStep;
}

bool LcTank::oscillates(std::uint32_t q_code) const {
  return inv_q_effective(q_code) <= 0.0;
}

double LcTank::pole_angle(std::uint32_t coarse, std::uint32_t fine,
                          double fs_hz) const {
  const double f = resonance_hz(coarse, fine);
  // Angles are clamped to (0, pi): resonances beyond Nyquist alias onto
  // the folding frequency in the sampled loop.
  const double theta = 2.0 * std::numbers::pi * f / fs_hz;
  return std::clamp(theta, 1e-3, std::numbers::pi - 1e-3);
}

double LcTank::pole_radius(std::uint32_t coarse, std::uint32_t fine,
                           std::uint32_t q_code, double fs_hz) const {
  const double theta = pole_angle(coarse, fine, fs_hz);
  const double inv_q = inv_q_effective(q_code);
  // r = exp(-theta * invQ / 2); invQ < 0 gives r > 1 (growth/oscillation).
  return std::exp(-theta * inv_q / 2.0);
}

}  // namespace analock::rf
