// Sub-block divide-and-conquer attack (paper Section IV.B.3 / VI.B.1):
// "A question rises whether the design can be divided in sub-blocks,
// tracing key bits to sub-blocks, and enabling smaller brute-force and
// multi-objective optimization attacks at sub-block level. This is
// typically not possible due to the internal feedback loops."
//
// The experiment: optimize each key sub-field in isolation (all other
// fields held at a random, wrong setting), then assemble the per-field
// "winners" into one key. The feedback coupling makes the isolated optima
// land away from the true codes, and the assembled key stays locked —
// which is exactly the paper's argument. For contrast, the same
// field-by-field search run in *conditioned* order (every earlier field
// already set correctly) recovers performance, showing it is coupling,
// not field granularity, that defeats the attack.
#pragma once

#include <cstdint>
#include <vector>

#include "attack/cost_model.h"
#include "lock/evaluator.h"
#include "lock/key64.h"
#include "sim/rng.h"

namespace analock::attack {

struct SubBlockFieldResult {
  const char* name = "";
  std::uint64_t isolated_best_code = 0;  ///< optimum with others random
  std::uint64_t conditioned_best_code = 0;  ///< optimum with others correct
  std::uint64_t reference_code = 0;  ///< code in the true (calibrated) key
  double isolated_snr_db = -200.0;
  double conditioned_snr_db = -200.0;
};

struct SubBlockResult {
  std::vector<SubBlockFieldResult> fields;
  lock::Key64 assembled_key{};   ///< per-field isolated winners combined
  double assembled_snr_db = -200.0;   ///< receiver SNR of the assembly
  double assembled_sfdr_db = -200.0;  ///< two-tone SFDR of the assembly
  double conditioned_snr_db = -200.0; ///< receiver SNR after ordered pass
  /// Full-specification check (SNR and SFDR): the paper's criterion.
  bool assembled_unlocks = false;
  std::uint64_t trials = 0;
  AttackCost cost;
};

class SubBlockAttack {
 public:
  /// Most codes one field sweep measures; wider fields are strided.
  static constexpr std::uint64_t kMaxTrialsPerField = 80;

  SubBlockAttack(lock::LockEvaluator& evaluator, sim::Rng rng)
      : evaluator_(&evaluator), rng_(rng) {}

  /// `reference_key` is the chip's true key, used only for reporting the
  /// distance of each isolated optimum (the attacker never sees it). The
  /// mode bits are forced to mission mode, which isolates the
  /// tuning-field question.
  SubBlockResult run(const lock::Key64& reference_key);

 private:
  lock::LockEvaluator* evaluator_;
  sim::Rng rng_;
};

}  // namespace analock::attack
