// Unit tests for the warm-start (gradient) attack of Section IV.B.3.
#include <gtest/gtest.h>

#include "attack/warm_start.h"
#include "calibrated_fixture.h"

namespace {

using namespace analock;
using attack::WarmStartAttack;
using attack::WarmStartOptions;

TEST(WarmStart, DonorKeyAloneIsDegradedOnVictim) {
  // Chip 0's key applied to chip 1: process variation costs margin.
  auto ev = fixtures::make_evaluator(1);
  const double own = ev.snr_receiver_db(fixtures::chip(1).cal.key);
  const double cross = ev.snr_receiver_db(fixtures::chip(0).cal.key);
  EXPECT_GT(own, cross);
}

TEST(WarmStart, RefinementRecoversSpecOnVictimChip) {
  // The paper's residual risk: a leaked key is a good starting point for
  // quickly calibrating any chip.
  auto ev = fixtures::make_evaluator(1);
  WarmStartAttack attack(ev, sim::Rng(3000));
  WarmStartOptions options;
  options.max_trials = 1200;
  const auto result = attack.run(fixtures::chip(0).cal.key, options);
  EXPECT_GT(result.best_screen_snr_db, result.start_snr_db)
      << "local refinement must improve on the donor key";
  EXPECT_GT(result.receiver_snr_db, 40.0);
  EXPECT_TRUE(result.success);
  // And it is cheap relative to brute force: well under the calibration
  // measurement budget.
  EXPECT_LT(result.trials, 1300u);
}

TEST(WarmStart, MovesOnlyAFewBits) {
  auto ev = fixtures::make_evaluator(1);
  WarmStartAttack attack(ev, sim::Rng(3001));
  WarmStartOptions options;
  options.max_trials = 1200;
  const auto result = attack.run(fixtures::chip(0).cal.key, options);
  EXPECT_LE(result.hamming_moved, 32u)
      << "warm start should stay in the donor key's neighborhood";
}

TEST(WarmStart, FromOwnKeyIsNoWorse) {
  auto ev = fixtures::make_evaluator(0);
  WarmStartAttack attack(ev, sim::Rng(3002));
  WarmStartOptions options;
  options.max_trials = 800;
  const auto result = attack.run(fixtures::chip(0).cal.key, options);
  EXPECT_GE(result.best_screen_snr_db + 0.5, result.start_snr_db);
  EXPECT_TRUE(result.success);
}

TEST(WarmStart, ColdRandomStartFailsWithSameBudget) {
  // The same local-window search from a random key goes nowhere: the
  // windows never reach the distant true codes.
  auto ev = fixtures::make_evaluator(1);
  WarmStartAttack attack(ev, sim::Rng(3003));
  WarmStartOptions options;
  options.max_trials = 1200;
  sim::Rng start_rng(55);
  // analock-verify: allow(taint-call) attacker-side random start key, not provisioned key material
  const auto result = attack.run(
      lock::force_mission_mode(lock::Key64::random(start_rng)), options);
  EXPECT_FALSE(result.success);
}

TEST(WarmStart, TrialBudgetRespected) {
  auto ev = fixtures::make_evaluator(1);
  WarmStartAttack attack(ev, sim::Rng(3004));
  WarmStartOptions options;
  options.max_trials = 100;
  const auto result = attack.run(fixtures::chip(0).cal.key, options);
  EXPECT_LE(result.trials, 102u);
}

}  // namespace
