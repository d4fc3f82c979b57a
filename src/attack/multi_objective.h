// Multi-objective optimization attack (paper Section IV.B.3): iteratively
// search for a configuration that drives every performance into spec,
// using only oracle measurements.
//
// Two search engines:
//  * coordinate descent over the key's sub-fields (the attacker's best
//    guess at a "tuning knob at a time" strategy), and
//  * a genetic algorithm over raw 64-bit keys.
//
// The paper's observation is that only a small subset of programming bits
// has a smooth monotonic relationship with a given performance, and only
// once the rest are already correct — so cold starts stall. The
// `force_mission_mode` flag models an attacker who has reverse-engineered
// the mode-bit semantics from the netlist.
#pragma once

#include <cstdint>

#include "attack/cost_model.h"
#include "lock/evaluator.h"
#include "lock/key64.h"
#include "sim/rng.h"

namespace analock::attack {

struct MultiObjectiveOptions {
  std::size_t passes = 2;          ///< coordinate-descent passes
  std::uint64_t max_trials = 4000; ///< oracle-measurement budget
  bool force_mission_mode = false;
};

struct MultiObjectiveResult {
  bool success = false;
  std::uint64_t trials = 0;
  lock::Key64 best_key{};
  double best_screen_snr_db = -200.0;  ///< modulator-output SNR (attacker's
                                       ///< optimization objective)
  double receiver_snr_db = -200.0;
  double sfdr_db = -200.0;
  AttackCost cost;
};

class CoordinateDescentAttack {
 public:
  CoordinateDescentAttack(lock::LockEvaluator& evaluator, sim::Rng rng)
      : evaluator_(&evaluator), rng_(rng) {}

  /// Starts from a random key (or a caller-supplied one via `run_from`).
  MultiObjectiveResult run(const MultiObjectiveOptions& options);
  MultiObjectiveResult run_from(lock::Key64 start,
                                const MultiObjectiveOptions& options);

 private:
  lock::LockEvaluator* evaluator_;
  sim::Rng rng_;
};

struct GeneticOptions {
  std::uint64_t max_trials = 4000; ///< oracle-measurement budget
  bool force_mission_mode = false;
};

class GeneticAttack {
 public:
  /// Keys per generation.
  static constexpr std::size_t kPopulation = 24;
  /// Best keys carried unchanged into the next generation.
  static constexpr std::size_t kElites = 2;
  /// Per-bit flip probability of a child after uniform crossover.
  static constexpr double kMutationPerBit = 0.02;

  GeneticAttack(lock::LockEvaluator& evaluator, sim::Rng rng)
      : evaluator_(&evaluator), rng_(rng) {}

  MultiObjectiveResult run(const GeneticOptions& options);

 private:
  lock::LockEvaluator* evaluator_;
  sim::Rng rng_;
};

}  // namespace analock::attack
