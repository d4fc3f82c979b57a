// Unit tests for the sub-block divide-and-conquer attack experiment.
#include <gtest/gtest.h>

#include "attack/subblock.h"
#include "calibrated_fixture.h"

namespace {

using namespace analock;
using attack::SubBlockAttack;

const attack::SubBlockResult& result() {
  static const attack::SubBlockResult r = [] {
    auto ev = fixtures::make_evaluator(0);
    SubBlockAttack attack(ev, sim::Rng(4000));
    return attack.run(fixtures::chip(0).cal.key);
  }();
  return r;
}

TEST(SubBlock, CoversEveryTuningField) {
  EXPECT_EQ(result().fields.size(), 10u);
}

TEST(SubBlock, IsolatedAssemblyStaysLocked) {
  // The paper's claim: per-block optimization with the rest of the chip
  // unconditioned does not compose into an unlocking key. At least one
  // performance (SNR or SFDR) violates its specification.
  EXPECT_FALSE(result().assembled_unlocks);
  const auto& spec = rf::standard_max_3ghz().spec;
  EXPECT_TRUE(result().assembled_snr_db < spec.min_snr_db ||
              result().assembled_sfdr_db < spec.min_sfdr_db);
}

TEST(SubBlock, ConditionedPassRecoversPerformance) {
  // Same sweeps in calibration order on a conditioned chip: performance
  // returns, isolating loop coupling as the failure cause.
  EXPECT_GT(result().conditioned_snr_db, result().assembled_snr_db + 10.0);
  EXPECT_GT(result().conditioned_snr_db, 35.0);
}

TEST(SubBlock, ConditionedOptimaNearReference) {
  // In the conditioned context the sweeps land near the calibrated codes
  // for the strongly-coupled fields (capacitors).
  for (const auto& f : result().fields) {
    if (std::string_view(f.name) == "cap-coarse") {
      const auto d = f.conditioned_best_code > f.reference_code
                         ? f.conditioned_best_code - f.reference_code
                         : f.reference_code - f.conditioned_best_code;
      EXPECT_LE(d, 4u) << "coarse caps should be recoverable when conditioned";
    }
  }
}

TEST(SubBlock, IsolatedSnrIsFarBelowSpec) {
  for (const auto& f : result().fields) {
    EXPECT_LT(f.isolated_snr_db, 40.0) << f.name;
  }
}

TEST(SubBlock, TrialAccountingConsistent) {
  EXPECT_GT(result().trials, 100u);
  EXPECT_EQ(result().cost.snr_trials + result().cost.sfdr_trials,
            result().trials);
}

}  // namespace
