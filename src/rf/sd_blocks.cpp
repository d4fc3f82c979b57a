#include "rf/sd_blocks.h"

#include <algorithm>
#include <cmath>

namespace analock::rf {

double bias_multiplier(std::uint32_t code) {
  // Power-law bias DAC: low codes starve the block (transistors drop out
  // of saturation, the stage effectively dies), mid-high codes span the
  // useful range with the unity point near code 45. m(63) = 1.75.
  const double x = static_cast<double>(code & 63u) / 63.0;
  // Floor keeps a starved block numerically alive (leakage currents) —
  // hugely noisy and offset-dominated, but finite.
  return std::max(0.01, 1.75 * std::pow(x, 1.8));
}

std::uint32_t bias_code_for_multiplier(double m) {
  const double clamped = std::clamp(m, 0.0, 1.75);
  return static_cast<std::uint32_t>(
      std::lround(std::pow(clamped / 1.75, 1.0 / 1.8) * 63.0));
}

}  // namespace analock::rf
