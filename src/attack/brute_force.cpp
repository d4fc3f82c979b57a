#include "attack/brute_force.h"

#include <algorithm>
#include <limits>
#include <span>

#include "lock/batch_evaluator.h"
#include "lock/key_layout.h"
#include "obs/trace.h"

namespace analock::attack {

namespace {

using Metric = lock::LockEvaluator::Metric;

constexpr std::size_t kUnmeasured = std::numeric_limits<std::size_t>::max();

/// One look-ahead group: consecutive screen batches with their clean
/// readings, taken before any of them is booked.
struct LookAhead {
  std::vector<lock::Key64> keys;     ///< in draw order
  std::vector<std::size_t> ends;     ///< one past each screen batch's keys
  std::vector<sim::Rng> rng_after;   ///< attack RNG after each batch's draw
  std::vector<double> screens;       ///< modulator SNR per key, booked in place
  std::vector<std::size_t> rx_slot;  ///< index into `rx`, or kUnmeasured
  std::vector<double> rx;  ///< clean receiver SNR per predicted survivor
};

/// Draws and screens batches of `batch_size` keys until the clean screens
/// predict at least `batch_size` survivors or the budget is drawn, then
/// measures the predicted survivors in receiver transients of at most
/// `batch_size` lanes. Keys come from `rng` in the order a per-batch loop
/// would draw them.
LookAhead screen_ahead(lock::BatchEvaluator& batch, sim::Rng& rng,
                       const BruteForceOptions& options,
                       std::uint64_t batch_size, double input_dbm,
                       std::uint64_t& drawn) {
  LookAhead group;
  std::vector<lock::Key64> predicted;
  while (drawn < options.max_trials && predicted.size() < batch_size) {
    const std::size_t begin = group.keys.size();
    const std::uint64_t n =
        std::min<std::uint64_t>(batch_size, options.max_trials - drawn);
    for (std::uint64_t i = 0; i < n; ++i) {
      lock::Key64 key = lock::Key64::random(rng);
      if (options.force_mission_mode) key = lock::force_mission_mode(key);
      group.keys.push_back(key);
    }
    drawn += n;
    group.ends.push_back(group.keys.size());
    group.rng_after.push_back(rng);
    const auto screens = batch.clean_snr_modulator(
        std::span<const lock::Key64>(group.keys).subspan(begin), input_dbm);
    for (std::size_t i = 0; i < screens.size(); ++i) {
      const bool pass = screens[i] >= options.screen_snr_db;
      group.screens.push_back(screens[i]);
      group.rx_slot.push_back(pass ? predicted.size() : kUnmeasured);
      if (pass) predicted.push_back(group.keys[begin + i]);
    }
  }
  for (std::size_t start = 0; start < predicted.size(); start += batch_size) {
    const std::size_t lanes =
        std::min<std::size_t>(batch_size, predicted.size() - start);
    const auto rx = batch.clean_snr_receiver(
        std::span<const lock::Key64>(predicted).subspan(start, lanes),
        input_dbm);
    group.rx.insert(group.rx.end(), rx.begin(), rx.end());
  }
  return group;
}

}  // namespace

BruteForceResult BruteForceAttack::run(const BruteForceOptions& options) {
  ANALOCK_SPAN("attack.brute_force");
  obs::Convergence convergence("brute_force");
  lock::BatchEvaluator batch(*evaluator_);
  BruteForceResult result;
  result.screen_snr_db.reserve(options.max_trials);
  const double input_dbm = evaluator_->options().input_dbm;
  const double spec_snr = evaluator_->standard().spec.min_snr_db;
  const double spec_sfdr = evaluator_->standard().spec.min_sfdr_db;
  const auto queries = [&result] {
    return result.cost.snr_trials + result.cost.sfdr_trials;
  };
  const std::uint64_t batch_size = std::max<std::uint64_t>(
      1, std::min(options.batch_size, options.max_trials));

  std::vector<lock::Key64> survivors;
  std::vector<double> rx_snrs;
  std::vector<std::size_t> unpredicted;
  std::vector<lock::Key64> unpredicted_keys;
  for (std::uint64_t drawn = 0; drawn < options.max_trials;) {
    LookAhead group =
        screen_ahead(batch, rng_, options, batch_size, input_dbm, drawn);

    // Replay the group's bookings batch by batch, in the order one
    // receiver batch per screen batch would charge them.
    std::size_t begin = 0;
    for (std::size_t b = 0; b < group.ends.size(); ++b) {
      const std::size_t end = group.ends[b];
      // Stage 1 — the screen batch is booked as one block, then its
      // bookkeeping replays in candidate order.
      for (std::size_t i = begin; i < end; ++i) {
        group.screens[i] = evaluator_->charge(
            Metric::kSnrModulator, group.keys[i], group.screens[i]);
      }
      survivors.clear();
      rx_snrs.clear();
      unpredicted.clear();
      for (std::size_t i = begin; i < end; ++i) {
        ++result.trials;
        obs::count("attack.brute_force.trials");
        const double screen = group.screens[i];
        ++result.cost.snr_trials;
        result.screen_snr_db.push_back(screen);
        if (screen > result.best_screen_snr_db) {
          result.best_screen_snr_db = screen;
          result.best_key = group.keys[i];
          convergence.observe(queries(), screen);
        }
        if (screen < options.screen_snr_db) continue;
        // The charged screen decides. A fault spike can pass a key whose
        // clean screen failed; it has no receiver reading yet.
        const std::size_t slot = group.rx_slot[i];
        if (slot == kUnmeasured) unpredicted.push_back(survivors.size());
        survivors.push_back(group.keys[i]);
        rx_snrs.push_back(slot == kUnmeasured ? 0.0 : group.rx[slot]);
      }
      begin = end;
      if (!unpredicted.empty()) {
        unpredicted_keys.clear();
        for (const std::size_t j : unpredicted) {
          unpredicted_keys.push_back(survivors[j]);
        }
        const auto rx = batch.clean_snr_receiver(unpredicted_keys, input_dbm);
        for (std::size_t k = 0; k < unpredicted.size(); ++k) {
          rx_snrs[unpredicted[k]] = rx[k];
        }
      }

      // Stage 2 — the survivors' receiver readings are booked as one
      // block, then SFDR per survivor that meets the SNR spec.
      for (std::size_t j = 0; j < survivors.size(); ++j) {
        rx_snrs[j] =
            evaluator_->charge(Metric::kSnrReceiver, survivors[j], rx_snrs[j]);
      }
      for (std::size_t j = 0; j < survivors.size(); ++j) {
        const double rx = rx_snrs[j];
        ++result.cost.snr_trials;
        if (rx > result.best_receiver_snr_db) result.best_receiver_snr_db = rx;
        if (rx < spec_snr) continue;
        const double sfdr = evaluator_->sfdr_db(survivors[j]);
        ++result.cost.sfdr_trials;
        if (sfdr >= spec_sfdr) {
          result.success = true;
          result.best_key = survivors[j];
          result.best_receiver_snr_db = rx;
          obs::event("attack.success", {{"attack", "brute_force"},
                                        {"query", queries()},
                                        {"snr_receiver_db", rx},
                                        {"sfdr_db", sfdr}});
          // Keys drawn past this batch were measured but never booked.
          rng_ = group.rng_after[b];
          return result;
        }
      }
    }
  }
  return result;
}

}  // namespace analock::attack
