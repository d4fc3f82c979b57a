// Warm-start (gradient-search) attack, paper Section IV.B.3: "if the
// programming bits are unique for each chip, then these attacks become
// meaningful only if the resultant key-bit combination can be used to set
// a good starting point for launching a gradient search for quickly
// calibrating any chip."
//
// Given a key leaked from (or brute-forced on) one chip, refine it
// locally on a *different* chip instance: small windows around every
// sub-field, driven by oracle SNR measurements.
#pragma once

#include <cstdint>

#include "attack/cost_model.h"
#include "lock/evaluator.h"
#include "lock/key64.h"
#include "sim/rng.h"

namespace analock::attack {

struct WarmStartOptions {
  std::uint64_t max_trials = 1500;  ///< oracle-measurement budget
};

struct WarmStartResult {
  bool success = false;
  std::uint64_t trials = 0;
  lock::Key64 start_key{};
  lock::Key64 best_key{};
  /// Objective scores on the SNR-spec axis: the attacker's objective is
  /// the worst specification margin (SNR and, near spec, SFDR), offset by
  /// the SNR spec so values read like SNRs.
  double start_snr_db = -200.0;    ///< donor key applied as-is
  double best_screen_snr_db = -200.0;
  double receiver_snr_db = -200.0;
  double sfdr_db = -200.0;
  unsigned hamming_moved = 0;      ///< bits changed from the donor key
  AttackCost cost;
};

class WarmStartAttack {
 public:
  /// Sweeps over the ten tuning fields.
  static constexpr std::size_t kPasses = 2;
  /// Local search half-window per field, as a fraction of the field range
  /// (process spread keeps the victim's optimum near the donor's code).
  static constexpr double kWindowFraction = 0.25;

  /// `evaluator` measures the victim chip.
  WarmStartAttack(lock::LockEvaluator& evaluator, sim::Rng rng)
      : evaluator_(&evaluator), rng_(rng) {}

  WarmStartResult run(const lock::Key64& donor_key,
                      const WarmStartOptions& options);

 private:
  lock::LockEvaluator* evaluator_;
  sim::Rng rng_;
};

}  // namespace analock::attack
