#include "calib/oscillation_tuner.h"

#include <array>
#include <cassert>
#include <cmath>
#include <vector>

#include "par/thread_pool.h"

namespace analock::calib {

FrequencyMeasurement measure_frequency(std::span<const double> capture,
                                       double fs_hz, double hysteresis) {
  FrequencyMeasurement m;
  if (capture.empty()) return m;
  double sum_sq = 0.0;
  std::size_t rising = 0;
  // Hysteresis comparator state: -1 below, +1 above.
  int state = capture.front() > 0.0 ? 1 : -1;
  std::size_t first_cross = 0;
  std::size_t last_cross = 0;
  for (std::size_t i = 0; i < capture.size(); ++i) {
    const double x = capture[i];
    sum_sq += x * x;
    if (state < 0 && x > hysteresis) {
      state = 1;
      if (rising == 0) first_cross = i;
      last_cross = i;
      ++rising;
    } else if (state > 0 && x < -hysteresis) {
      state = -1;
    }
  }
  m.rms = std::sqrt(sum_sq / static_cast<double>(capture.size()));
  if (rising >= 2 && last_cross > first_cross) {
    // Period estimated between the first and last rising crossings: edge
    // effects shrink to 1/(cycles counted).
    const double cycles = static_cast<double>(rising - 1);
    const double span = static_cast<double>(last_cross - first_cross);
    m.freq_hz = cycles / span * fs_hz;
  }
  return m;
}

rf::ModulatorConfig oscillation_mode_config(std::uint32_t cap_coarse,
                                            std::uint32_t cap_fine,
                                            std::uint32_t q_enh) {
  rf::ModulatorConfig cfg;
  cfg.cap_coarse = cap_coarse;
  cfg.cap_fine = cap_fine;
  cfg.q_enh = q_enh;              // step 5: -Gm at maximum
  cfg.feedback_enable = false;    // step 4: loop + DAC + delay off
  cfg.comp_clock_enable = false;  // step 1: comparator as buffer
  cfg.gmin_enable = false;        // step 3: RF input off
  cfg.buffer_in_path = true;      // step 2: output buffer drives the ATE
  cfg.out_buffer = 15;            // full drive for the frequency counter
  cfg.test_mux = 2;               // observe the pre-amplifier tap
  return cfg;
}

std::vector<double> capture_oscillation(rf::ReceiverBatch& chip,
                                        std::uint32_t cap_coarse,
                                        std::uint32_t cap_fine,
                                        std::uint32_t q_enh,
                                        std::size_t settle,
                                        std::size_t measure) {
  assert(chip.lanes() == 1 && "oscillation readings drive a one-lane chip");
  // VGLNA gain and digital mode stay at their defaults: with Gmin off
  // and only the modulator captured, neither reaches the output.
  std::array<rf::ReceiverConfig, 1> cfg{};
  cfg[0].modulator = oscillation_mode_config(cap_coarse, cap_fine, q_enh);
  chip.configure(cfg);
  const std::vector<double> zeros(settle + measure, 0.0);
  return chip.capture_modulator(zeros, settle, par::ThreadPool::shared());
}

OscillationTuner::OscillationTuner(rf::ReceiverBatch& chip, Options options)
    : chip_(&chip), options_(options) {}

FrequencyMeasurement OscillationTuner::measure(std::uint32_t cap_coarse,
                                               std::uint32_t cap_fine) {
  return measure_at_q(cap_coarse, cap_fine, 63, options_.settle);
}

FrequencyMeasurement OscillationTuner::measure_at_q(std::uint32_t cap_coarse,
                                                    std::uint32_t cap_fine,
                                                    std::uint32_t q_code,
                                                    std::size_t settle) {
  ++measurements_;
  const std::vector<double> capture = capture_oscillation(
      *chip_, cap_coarse, cap_fine, q_code, settle, options_.measure);
  return measure_frequency(capture, chip_->fs_hz(), options_.hysteresis);
}

std::uint32_t OscillationTuner::fine_tune(std::uint32_t cap_coarse,
                                          double target_hz,
                                          std::uint32_t q_code) {
  // Slow build-up near threshold: allow a long settle.
  const std::size_t settle = 4 * options_.settle + 16384;
  // Escalate the overdrive until the oscillation reliably rails: right at
  // the threshold the build-up from thermal noise can outlast the settle
  // window, and a weak capture gives a garbage count.
  std::uint32_t q = q_code;
  while (q < rf::LcTank::kQEnhMax &&
         measure_at_q(cap_coarse, 128, q, settle).rms < 0.5) {
    q += 2;
  }
  q_code = q;
  std::uint32_t lo = 0;
  std::uint32_t hi = rf::LcTank::kFineMax;
  while (lo < hi) {
    const std::uint32_t mid = (lo + hi) / 2;
    const auto m = measure_at_q(cap_coarse, mid, q_code, settle);
    if (m.freq_hz > target_hz) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  std::uint32_t best = lo;
  double best_err = std::abs(
      measure_at_q(cap_coarse, lo, q_code, settle).freq_hz - target_hz);
  if (lo > 0) {
    const double err_prev = std::abs(
        measure_at_q(cap_coarse, lo - 1, q_code, settle).freq_hz - target_hz);
    if (err_prev < best_err) best = lo - 1;
  }
  return best;
}

OscillationTuner::Result OscillationTuner::tune(double target_hz) {
  Result result;
  // Coarse: oscillation frequency decreases monotonically with the code.
  std::uint32_t lo = 0;
  std::uint32_t hi = rf::LcTank::kCoarseMax;
  while (lo < hi) {
    const std::uint32_t mid = (lo + hi) / 2;
    const auto m = measure(mid, 128);
    if (m.freq_hz > target_hz) {
      lo = mid + 1;  // frequency too high -> more capacitance
    } else {
      hi = mid;
    }
  }
  // `lo` is the smallest coarse code with f <= target; check the neighbor
  // above for a closer landing with the fine array centered.
  std::uint32_t best_coarse = lo;
  double best_err = std::abs(measure(lo, 128).freq_hz - target_hz);
  if (lo > 0) {
    const double err_prev = std::abs(measure(lo - 1, 128).freq_hz - target_hz);
    if (err_prev < best_err) {
      best_coarse = lo - 1;
      best_err = err_prev;
    }
  }

  // Fine: same monotone search on the fine array.
  std::uint32_t flo = 0;
  std::uint32_t fhi = rf::LcTank::kFineMax;
  while (flo < fhi) {
    const std::uint32_t mid = (flo + fhi) / 2;
    const auto m = measure(best_coarse, mid);
    if (m.freq_hz > target_hz) {
      flo = mid + 1;
    } else {
      fhi = mid;
    }
  }
  std::uint32_t best_fine = flo;
  double fine_err =
      std::abs(measure(best_coarse, best_fine).freq_hz - target_hz);
  if (flo > 0) {
    const double err_prev =
        std::abs(measure(best_coarse, flo - 1).freq_hz - target_hz);
    if (err_prev < fine_err) {
      best_fine = flo - 1;
      fine_err = err_prev;
    }
  }

  result.cap_coarse = best_coarse;
  result.cap_fine = best_fine;
  const auto final_m = measure(best_coarse, best_fine);
  result.achieved_hz = final_m.freq_hz;
  result.measurements = measurements_;
  // Converged when the landing error is well inside the OSR band
  // half-width fs/(4*OSR) = f0/64.
  result.converged =
      std::abs(result.achieved_hz - target_hz) < target_hz / 200.0;
  return result;
}

}  // namespace analock::calib
