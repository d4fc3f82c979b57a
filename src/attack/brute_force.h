// Brute-force attack (paper Section IV.B.3 / VI.B.1): apply random
// combinations of programming bits until one unlocks the circuit.
//
// Two-stage screen like a real attacker would run: a cheap SNR
// measurement at the modulator output filters candidates; survivors get
// the full receiver-output check against the specification.
//
// The simulator screens ahead. It draws and screens batch after batch of
// keys until the clean screens (lock::BatchEvaluator) predict at least
// batch_size survivors, or the budget is drawn: one look-ahead group. It
// then measures the predicted survivors' receiver SNR in transients of
// up to batch_size lanes, and replays the bookings through
// LockEvaluator::charge batch by batch in per-key order: a batch's
// screens, its survivors' receiver readings as one block, then SFDR per
// passing survivor. Survivors are chosen by the charged screen, so under
// a fault campaign a key lifted over the threshold by a spike gets its
// receiver reading from a small batch taken on demand, and a predicted
// key whose charged screen fails is never booked. Results, trial
// counts, the injector's stream and the order of obs counts and events
// are those of one receiver batch per screen batch. The one difference
// is unbooked work: on success the attack may already have measured the
// rest of its look-ahead group, which no counter records.
#pragma once

#include <cstdint>
#include <vector>

#include "attack/cost_model.h"
#include "lock/evaluator.h"
#include "lock/key64.h"
#include "sim/rng.h"

namespace analock::attack {

struct BruteForceOptions {
  std::uint64_t max_trials = 1000;
  /// Modulator-output SNR above which a candidate graduates to the full
  /// receiver check.
  double screen_snr_db = 20.0;
  /// The attacker may have reverse-engineered the mode-bit semantics and
  /// forces mission mode, shrinking the search to the 58 tuning bits.
  bool force_mission_mode = false;
  /// Candidates per batched transient (lock::BatchEvaluator), in both
  /// stages: keys per screen batch, and at most this many survivors per
  /// receiver transient. Results are bit-identical for any batch size; on
  /// success the attack may charge up to batch_size-1 extra screen
  /// trials because it exits at batch granularity.
  std::uint64_t batch_size = 32;
};

struct BruteForceResult {
  bool success = false;
  std::uint64_t trials = 0;
  lock::Key64 best_key{};
  double best_screen_snr_db = -200.0;
  double best_receiver_snr_db = -200.0;
  /// Screen SNR of every trial, for distribution analysis (Fig. 7-style).
  std::vector<double> screen_snr_db;
  AttackCost cost;
};

class BruteForceAttack {
 public:
  BruteForceAttack(lock::LockEvaluator& evaluator, sim::Rng rng)
      : evaluator_(&evaluator), rng_(rng) {}

  /// Runs the attack. Keys come from the attack's RNG in draw order; on
  /// success the RNG is left where the last booked batch's draw left it,
  /// so a later run() continues as if no key had been drawn ahead.
  BruteForceResult run(const BruteForceOptions& options);

 private:
  lock::LockEvaluator* evaluator_;
  sim::Rng rng_;
};

}  // namespace analock::attack
