#include "attack/warm_start.h"

#include <algorithm>
#include <cmath>

#include "lock/key_layout.h"
#include "obs/trace.h"

namespace analock::attack {

WarmStartResult WarmStartAttack::run(const lock::Key64& donor_key,
                                     const WarmStartOptions& options) {
  ANALOCK_SPAN("attack.warm_start");
  obs::Convergence convergence("warm_start", "spec_margin_db");
  WarmStartResult result;
  result.start_key = donor_key;
  lock::Key64 key = donor_key;

  // The attacker optimizes the full specification margin, as the real
  // calibration does: SNR-only hill climbing walks into deceptive optima
  // (detuned tank compensated by gain) that an SFDR check exposes. The
  // SFDR measurement is gated on the SNR being near spec to save trials.
  const auto& spec = evaluator_->standard().spec;
  auto measure = [&](const lock::Key64& k) {
    ++result.trials;
    ++result.cost.snr_trials;
    obs::count("attack.warm_start.trials");
    const double snr_margin =
        evaluator_->snr_modulator_db(k) - spec.min_snr_db;
    double score = snr_margin;
    if (snr_margin >= -10.0) {
      ++result.trials;
      ++result.cost.sfdr_trials;
      obs::count("attack.warm_start.trials");
      const double sfdr_margin = evaluator_->sfdr_db(k) - spec.min_sfdr_db;
      score = std::min(snr_margin, sfdr_margin);
    }
    convergence.observe(result.trials, score);
    return score;
  };

  double best = measure(key);
  result.start_snr_db = best + spec.min_snr_db;

  for (std::size_t pass = 0;
       pass < kPasses && result.trials < options.max_trials; ++pass) {
    for (const lock::KeyLayout::Field& tuning :
         lock::KeyLayout::kTuningFields) {
      if (result.trials >= options.max_trials) break;
      const sim::BitRange field = tuning.range;
      const std::uint64_t max_value = field.max_value();
      const auto window = std::max<std::uint64_t>(
          1, static_cast<std::uint64_t>(
                 std::llround(kWindowFraction *
                              static_cast<double>(max_value))));
      const std::uint64_t center = key.field(field);
      const std::uint64_t lo = center > window ? center - window : 0;
      const std::uint64_t hi = std::min(max_value, center + window);
      // Wide fields get a strided pass first so the window stays cheap.
      const std::uint64_t stride =
          std::max<std::uint64_t>(1, (hi - lo) / 16);
      std::uint64_t best_code = center;
      for (std::uint64_t code = lo;
           code <= hi && result.trials < options.max_trials; code += stride) {
        if (code == center) continue;
        const double snr = measure(key.with_field(field, code));
        if (snr > best) {
          best = snr;
          best_code = code;
        }
      }
      if (stride > 1 && result.trials < options.max_trials) {
        const std::uint64_t rlo =
            best_code > stride ? best_code - stride : 0;
        const std::uint64_t rhi = std::min(max_value, best_code + stride);
        for (std::uint64_t code = rlo;
             code <= rhi && result.trials < options.max_trials; ++code) {
          if (code == best_code) continue;
          const double snr = measure(key.with_field(field, code));
          if (snr > best) {
            best = snr;
            best_code = code;
          }
        }
      }
      key = key.with_field(field, best_code);
    }
  }

  result.best_key = key;
  result.best_screen_snr_db = best + spec.min_snr_db;
  result.hamming_moved = key.hamming_distance(donor_key);

  result.receiver_snr_db = evaluator_->snr_receiver_db(key);
  ++result.cost.snr_trials;
  ++result.trials;
  
  if (result.receiver_snr_db >= spec.min_snr_db) {
    result.sfdr_db = evaluator_->sfdr_db(key);
    ++result.cost.sfdr_trials;
    ++result.trials;
    result.success = result.sfdr_db >= spec.min_sfdr_db;
  }
  return result;
}

}  // namespace analock::attack
