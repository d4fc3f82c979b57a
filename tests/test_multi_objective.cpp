// Unit tests for the multi-objective optimization attacks.
#include <gtest/gtest.h>

#include "attack/multi_objective.h"
#include "calibrated_fixture.h"

namespace {

using namespace analock;
using attack::CoordinateDescentAttack;
using attack::GeneticAttack;
using attack::GeneticOptions;
using attack::MultiObjectiveOptions;

TEST(CoordinateDescent, ColdStartStallsQuickly) {
  // Paper: only a small subset of bits is smoothly related to a
  // performance, and only once the rest are set — a cold random start
  // with a small budget must not unlock.
  auto ev = fixtures::make_evaluator(0);
  CoordinateDescentAttack attack(ev, sim::Rng(2000));
  MultiObjectiveOptions options;
  options.max_trials = 300;
  options.passes = 1;
  const auto result = attack.run(options);
  EXPECT_FALSE(result.success);
}

TEST(CoordinateDescent, BudgetIsRespected) {
  auto ev = fixtures::make_evaluator(0);
  CoordinateDescentAttack attack(ev, sim::Rng(2001));
  MultiObjectiveOptions options;
  options.max_trials = 150;
  const auto result = attack.run(options);
  EXPECT_LE(result.trials, options.max_trials + 2);  // + final verification
}

TEST(CoordinateDescent, MissionModeKnowledgeEnablesCalibrationByAttack) {
  // With reverse-engineered mode bits and a calibration-sized trial
  // budget, coordinate descent effectively re-derives the calibration —
  // quantifying the paper's remark that resilience rests on per-trial
  // cost and the secrecy of the calibration algorithm, not on the
  // landscape alone.
  auto ev = fixtures::make_evaluator(0);
  CoordinateDescentAttack attack(ev, sim::Rng(2002));
  MultiObjectiveOptions options;
  options.max_trials = 2500;
  options.passes = 3;
  options.force_mission_mode = true;
  const auto result = attack.run(options);
  EXPECT_GT(result.best_screen_snr_db, 30.0)
      << "descent with mode knowledge should at least approach spec";
  // Whether or not it fully unlocks, the projected cost is what defends:
  // >800 trials x 20 min simulation.
  EXPECT_GT(result.cost.simulation_hours(), 250.0);
}

TEST(CoordinateDescent, RunFromLeakedKeySucceedsImmediately) {
  auto ev = fixtures::make_evaluator(0);
  CoordinateDescentAttack attack(ev, sim::Rng(2003));
  MultiObjectiveOptions options;
  options.max_trials = 600;
  options.passes = 1;
  const auto result = attack.run_from(fixtures::chip(0).cal.key, options);
  EXPECT_TRUE(result.success);
}

TEST(Genetic, ColdStartFailsWithSmallBudget) {
  auto ev = fixtures::make_evaluator(0);
  GeneticAttack attack(ev, sim::Rng(2004));
  GeneticOptions options;
  options.max_trials = 300;
  const auto result = attack.run(options);
  EXPECT_FALSE(result.success);
}

TEST(Genetic, FitnessImprovesOverGenerations) {
  auto ev = fixtures::make_evaluator(0);

  GeneticOptions small;
  small.max_trials = 48;  // one generation: 24 initial keys, 22 children
  small.force_mission_mode = true;
  GeneticAttack a_small(ev, sim::Rng(2005));
  const auto r_small = a_small.run(small);

  GeneticOptions large = small;
  large.max_trials = 600;
  GeneticAttack a_large(ev, sim::Rng(2005));
  const auto r_large = a_large.run(large);

  EXPECT_GE(r_large.best_screen_snr_db, r_small.best_screen_snr_db - 1.0)
      << "more generations must not do worse (elitism)";
}

TEST(Genetic, RespectsTrialBudget) {
  auto ev = fixtures::make_evaluator(0);
  GeneticAttack attack(ev, sim::Rng(2006));
  GeneticOptions options;
  options.max_trials = 100;
  const auto result = attack.run(options);
  EXPECT_LE(result.trials, options.max_trials + 2);
}

}  // namespace
