// Reference for BruteForceAttack::run: the per-batch loop it replaced.
// Each screen batch is measured and booked with BatchEvaluator's charged
// calls, and its survivors get a receiver batch of their own. The
// equivalence tests compare the look-ahead attack against this loop field
// by field, trial count by trial count and fault by fault.
//
// `rng` is the attack's RNG; it advances exactly as the attack's own does.
#pragma once

#include <algorithm>
#include <vector>

#include "attack/brute_force.h"
#include "lock/batch_evaluator.h"
#include "lock/key_layout.h"

namespace analock::reference {

inline attack::BruteForceResult brute_force(
    lock::LockEvaluator& evaluator, sim::Rng& rng,
    const attack::BruteForceOptions& options) {
  lock::BatchEvaluator batch(evaluator);
  attack::BruteForceResult result;
  const double spec_snr = evaluator.standard().spec.min_snr_db;
  const double spec_sfdr = evaluator.standard().spec.min_sfdr_db;
  const std::uint64_t batch_size = std::max<std::uint64_t>(
      1, std::min(options.batch_size, options.max_trials));

  std::vector<lock::Key64> keys;
  std::vector<lock::Key64> survivors;
  for (std::uint64_t done = 0; done < options.max_trials;
       done += keys.size()) {
    keys.clear();
    const std::uint64_t n =
        std::min<std::uint64_t>(batch_size, options.max_trials - done);
    for (std::uint64_t i = 0; i < n; ++i) {
      lock::Key64 key = lock::Key64::random(rng);
      if (options.force_mission_mode) key = lock::force_mission_mode(key);
      keys.push_back(key);
    }

    const auto screens = batch.snr_modulator_db(keys);
    survivors.clear();
    for (std::size_t i = 0; i < keys.size(); ++i) {
      ++result.trials;
      const double screen = screens[i];
      ++result.cost.snr_trials;
      result.screen_snr_db.push_back(screen);
      if (screen > result.best_screen_snr_db) {
        result.best_screen_snr_db = screen;
        result.best_key = keys[i];
      }
      if (screen >= options.screen_snr_db) survivors.push_back(keys[i]);
    }
    if (survivors.empty()) continue;

    const auto rx_snrs = batch.snr_receiver_db(survivors);
    for (std::size_t i = 0; i < survivors.size(); ++i) {
      const double rx = rx_snrs[i];
      ++result.cost.snr_trials;
      if (rx > result.best_receiver_snr_db) result.best_receiver_snr_db = rx;
      if (rx < spec_snr) continue;
      const double sfdr = evaluator.sfdr_db(survivors[i]);
      ++result.cost.sfdr_trials;
      if (sfdr >= spec_sfdr) {
        result.success = true;
        result.best_key = survivors[i];
        result.best_receiver_snr_db = rx;
        return result;
      }
    }
  }
  return result;
}

}  // namespace analock::reference
