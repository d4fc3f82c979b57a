#include "calib/oscillation_tuner.h"

#include <array>
#include <cassert>
#include <cmath>
#include <vector>

#include "par/thread_pool.h"

namespace analock::calib {

namespace {

/// The one capacitor-code search (see the header). `freq_at(code)` takes
/// one reading with `code` on the array being searched; the oscillation
/// frequency falls as the code rises.
std::uint32_t search_code(std::uint32_t max_code, double target_hz,
                          auto&& freq_at) {
  std::uint32_t lo = 0;
  std::uint32_t hi = max_code;
  while (lo < hi) {
    const std::uint32_t mid = (lo + hi) / 2;
    if (freq_at(mid) > target_hz) {
      lo = mid + 1;  // frequency too high -> more capacitance
    } else {
      hi = mid;
    }
  }
  // `lo` is the smallest code with f <= target; the code below it may
  // land closer from above.
  const double err = std::abs(freq_at(lo) - target_hz);
  if (lo > 0 && std::abs(freq_at(lo - 1) - target_hz) < err) return lo - 1;
  return lo;
}

}  // namespace

FrequencyMeasurement measure_frequency(std::span<const double> capture,
                                       double fs_hz) {
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
    if (state < 0 && x > kCounterHysteresis) {
      state = 1;
      if (rising == 0) first_cross = i;
      last_cross = i;
      ++rising;
    } else if (state > 0 && x < -kCounterHysteresis) {
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

std::vector<double> OscillationTuner::capture(std::uint32_t cap_coarse,
                                              std::uint32_t cap_fine,
                                              std::uint32_t q_enh,
                                              std::size_t settle,
                                              std::size_t window) {
  assert(chip_->lanes() == 1 && "oscillation readings drive a one-lane chip");
  ++readings_;
  // VGLNA gain and digital mode stay at their defaults: with Gmin off
  // and only the modulator captured, neither reaches the output.
  std::array<rf::ReceiverConfig, 1> cfg{};
  cfg[0].modulator = oscillation_mode_config(cap_coarse, cap_fine, q_enh);
  chip_->configure(cfg);
  if (zeros_.size() < settle + window) zeros_.resize(settle + window, 0.0);
  return chip_->capture_modulator(
      std::span<const double>(zeros_).first(settle + window), settle,
      par::ThreadPool::shared());
}

FrequencyMeasurement OscillationTuner::measure(std::uint32_t cap_coarse,
                                               std::uint32_t cap_fine) {
  return measure_frequency(
      capture(cap_coarse, cap_fine, rf::LcTank::kQEnhMax, kSettle,
              kCountWindow),
      chip_->fs_hz());
}

FrequencyMeasurement OscillationTuner::measure_at_q(std::uint32_t cap_coarse,
                                                    std::uint32_t cap_fine,
                                                    std::uint32_t q_code) {
  return measure_frequency(
      capture(cap_coarse, cap_fine, q_code, kGentleSettle, kCountWindow),
      chip_->fs_hz());
}

bool OscillationTuner::oscillates(std::uint32_t cap_coarse,
                                  std::uint32_t cap_fine,
                                  std::uint32_t q_code) {
  const FrequencyMeasurement m = measure_frequency(
      capture(cap_coarse, cap_fine, q_code, kSettle, kBackOffWindow),
      chip_->fs_hz());
  return m.rms > kOscillationRms;
}

OscillationTuner::Result OscillationTuner::tune(double target_hz) {
  Result result;
  // Coarse with the fine array centered, then fine at the coarse landing.
  result.cap_coarse =
      search_code(rf::LcTank::kCoarseMax, target_hz, [&](std::uint32_t code) {
        return measure(code, 128).freq_hz;
      });
  result.cap_fine =
      search_code(rf::LcTank::kFineMax, target_hz, [&](std::uint32_t code) {
        return measure(result.cap_coarse, code).freq_hz;
      });
  result.achieved_hz = measure(result.cap_coarse, result.cap_fine).freq_hz;
  // Converged when the landing error is well inside the OSR band
  // half-width fs/(4*OSR) = f0/64.
  result.converged =
      std::abs(result.achieved_hz - target_hz) < target_hz / 200.0;
  return result;
}

OscillationTuner::BackOff OscillationTuner::back_off(std::uint32_t cap_coarse,
                                                     std::uint32_t cap_fine) {
  BackOff result;
  // Paper step 7 walks -Gm down gradually; near the threshold the decay
  // time constant diverges, so a sequential walk (rather than a binary
  // search) mirrors what the ATE procedure does and tolerates slow decay.
  for (std::uint32_t q = rf::LcTank::kQEnhMax;; --q) {
    if (!oscillates(cap_coarse, cap_fine, q)) {
      result.q_enh = q;
      // Converged only when some code above this one oscillated.
      result.converged = q < rf::LcTank::kQEnhMax;
      break;
    }
    result.q_threshold = q;
    if (q == 0) break;  // oscillates even with -Gm off: broken chip
  }
  return result;
}

std::uint32_t OscillationTuner::fine_tune(std::uint32_t cap_coarse,
                                          double target_hz,
                                          std::uint32_t q_code) {
  // Escalate the overdrive until the oscillation reliably rails: right at
  // the threshold the build-up from thermal noise can outlast the settle
  // window, and a weak capture gives a garbage count.
  while (q_code < rf::LcTank::kQEnhMax &&
         measure_at_q(cap_coarse, 128, q_code).rms < 0.5) {
    q_code += 2;
  }
  return search_code(rf::LcTank::kFineMax, target_hz, [&](std::uint32_t code) {
    return measure_at_q(cap_coarse, code, q_code).freq_hz;
  });
}

}  // namespace analock::calib
