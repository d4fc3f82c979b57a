#include "calib/q_tuner.h"

#include <cmath>
#include <vector>

#include "calib/oscillation_tuner.h"

namespace analock::calib {

QTuner::QTuner(rf::ReceiverBatch& chip, Options options)
    : chip_(&chip), options_(options) {}

bool QTuner::oscillates(std::uint32_t cap_coarse, std::uint32_t cap_fine,
                        std::uint32_t q_code) {
  ++measurements_;
  const std::vector<double> capture =
      capture_oscillation(*chip_, cap_coarse, cap_fine, q_code,
                          options_.settle, options_.measure);
  double sum_sq = 0.0;
  for (const double x : capture) sum_sq += x * x;
  const double rms = std::sqrt(sum_sq / static_cast<double>(capture.size()));
  return rms > options_.oscillation_rms;
}

QTuner::Result QTuner::tune(std::uint32_t cap_coarse, std::uint32_t cap_fine) {
  Result result;
  // Paper step 7 walks -Gm down gradually; near the threshold the decay
  // time constant diverges, so a sequential walk (rather than a binary
  // search) mirrors what the ATE procedure does and tolerates slow decay.
  std::uint32_t q = rf::LcTank::kQEnhMax;
  bool seen_oscillation = false;
  while (true) {
    const bool osc = oscillates(cap_coarse, cap_fine, q);
    if (osc) {
      seen_oscillation = true;
      result.q_threshold = q;
      if (q == 0) break;  // oscillates even with -Gm off: broken chip
      --q;
    } else {
      result.q_enh = q;
      result.converged = seen_oscillation;
      break;
    }
  }
  result.measurements = measurements_;
  return result;
}

}  // namespace analock::calib
