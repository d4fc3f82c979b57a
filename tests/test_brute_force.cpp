// Unit tests for the brute-force attack (paper Section VI.B.1).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "attack/brute_force.h"
#include "calibrated_fixture.h"
#include "fault/fault_injector.h"
#include "lock/batch_evaluator.h"
#include "reference_brute_force.h"

namespace {

using namespace analock;
using attack::BruteForceAttack;
using attack::BruteForceOptions;
using attack::BruteForceResult;

TEST(BruteForce, RandomKeysFailWithinBudget) {
  auto ev = fixtures::make_evaluator(0);
  BruteForceAttack attack(ev, sim::Rng(1000));
  BruteForceOptions options;
  options.max_trials = 200;
  const auto result = attack.run(options);
  // A rare key class (loop open, comparator clocked, tank near-tuned:
  // a high-Q filter + slicer) can beat the SNR screen, but the full
  // specification check (SFDR) still rejects it — the paper's "at least
  // one performance violates its specification" criterion.
  EXPECT_FALSE(result.success);
  EXPECT_EQ(result.trials, 200u);
}

TEST(BruteForce, ScreenDistributionMatchesFig7Shape) {
  // Fig. 7: most invalid keys < 0 dB, a small tail above 10 dB, none at
  // the correct-key level.
  auto ev = fixtures::make_evaluator(0);
  BruteForceAttack attack(ev, sim::Rng(1001));
  BruteForceOptions options;
  options.max_trials = 100;
  const auto result = attack.run(options);
  ASSERT_EQ(result.screen_snr_db.size(), 100u);
  const auto below_zero = std::count_if(
      result.screen_snr_db.begin(), result.screen_snr_db.end(),
      [](double s) { return s < 0.0; });
  EXPECT_GT(below_zero, 50) << "most invalid keys bury the signal";
  // A few percent of keys may pass the SNR screen (filter + slicer
  // class); none may survive the full spec check.
  const auto above_spec = std::count_if(
      result.screen_snr_db.begin(), result.screen_snr_db.end(),
      [&](double s) { return s >= ev.standard().spec.min_snr_db; });
  EXPECT_LE(above_spec, 5);
  EXPECT_FALSE(result.success);
}

TEST(BruteForce, CostAccountingMatchesTrials) {
  auto ev = fixtures::make_evaluator(0);
  BruteForceAttack attack(ev, sim::Rng(1002));
  BruteForceOptions options;
  options.max_trials = 50;
  const auto result = attack.run(options);
  EXPECT_GE(result.cost.snr_trials, 50u);
  // Paper projection: 50 trials x 20 min > 16 hours of simulation.
  EXPECT_GT(result.cost.simulation_hours(), 16.0);
}

TEST(BruteForce, ForcingMissionModeHelpsButNotEnough) {
  // Even knowing the mode-bit semantics, 58 tuning bits still defeat a
  // small random search.
  auto ev = fixtures::make_evaluator(0);
  BruteForceAttack attack(ev, sim::Rng(1003));
  BruteForceOptions options;
  options.max_trials = 100;
  options.force_mission_mode = true;
  const auto result = attack.run(options);
  EXPECT_FALSE(result.success);
  // But the screen distribution improves (more keys with signal present).
  const auto above_zero = std::count_if(
      result.screen_snr_db.begin(), result.screen_snr_db.end(),
      [](double s) { return s > 0.0; });
  EXPECT_GT(above_zero, 10);
}

TEST(BruteForce, FindsPlantedKey) {
  // Sanity: if the keyspace were tiny the attack machinery would succeed —
  // verify by checking the calibrated key itself passes the screen+verify
  // pipeline the attack uses.
  auto ev = fixtures::make_evaluator(0);
  const auto& key = fixtures::chip(0).cal.key;
  EXPECT_GT(ev.snr_modulator_db(key), 40.0);
  EXPECT_GT(ev.snr_receiver_db(key), 40.0);
  EXPECT_GT(ev.sfdr_db(key), 40.0);
}

TEST(BruteForce, DeterministicForFixedSeed) {
  auto ev1 = fixtures::make_evaluator(0);
  BruteForceAttack a1(ev1, sim::Rng(7));
  auto ev2 = fixtures::make_evaluator(0);
  BruteForceAttack a2(ev2, sim::Rng(7));
  BruteForceOptions options;
  options.max_trials = 20;
  const auto r1 = a1.run(options);
  const auto r2 = a2.run(options);
  EXPECT_EQ(r1.best_key, r2.best_key);
  EXPECT_DOUBLE_EQ(r1.best_screen_snr_db, r2.best_screen_snr_db);
}

// ---------------------------------------------------------------------
// Look-ahead equivalence: the attack screens ahead and batches the
// predicted survivors into full-width receiver transients, then replays
// the bookings. Against the per-batch loop (reference_brute_force.h) it
// must report the same result, charge the same trials and draw the same
// faults.
// ---------------------------------------------------------------------

/// A fault campaign; `attach` false runs with no injector at all.
struct Campaign {
  const char* name;
  bool attach;
  fault::FaultPlan plan;
};

/// Measurement spikes large enough to lift screens over the threshold
/// (and the clean survivors' readings under it), plus dropouts.
fault::FaultPlan spike_plan(std::uint64_t seed) {
  fault::FaultPlan plan;
  plan.seed = seed;
  plan.meas_spike_prob = 0.3;
  plan.meas_spike_sigma_db = 30.0;
  plan.meas_dropout_prob = 0.05;
  return plan;
}

std::vector<Campaign> campaigns() {
  fault::FaultPlan stuck;
  stuck.seed = 43;
  stuck.stuck_at0_bits = 3;
  stuck.stuck_at1_bits = 2;
  return {{"none", false, {}},
          {"spikes", true, spike_plan(41)},
          {"stuck", true, stuck}};
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

void expect_same_result(const BruteForceResult& got,
                        const BruteForceResult& want) {
  EXPECT_EQ(got.success, want.success);
  EXPECT_EQ(got.trials, want.trials);
  EXPECT_EQ(got.best_key, want.best_key);
  EXPECT_TRUE(same_bits(got.best_screen_snr_db, want.best_screen_snr_db))
      << got.best_screen_snr_db << " vs " << want.best_screen_snr_db;
  EXPECT_TRUE(same_bits(got.best_receiver_snr_db, want.best_receiver_snr_db))
      << got.best_receiver_snr_db << " vs " << want.best_receiver_snr_db;
  ASSERT_EQ(got.screen_snr_db.size(), want.screen_snr_db.size());
  for (std::size_t i = 0; i < want.screen_snr_db.size(); ++i) {
    EXPECT_TRUE(same_bits(got.screen_snr_db[i], want.screen_snr_db[i]))
        << "trial " << i;
  }
  EXPECT_EQ(got.cost.snr_trials, want.cost.snr_trials);
  EXPECT_EQ(got.cost.sweep_trials, want.cost.sweep_trials);
  EXPECT_EQ(got.cost.sfdr_trials, want.cost.sfdr_trials);
}

void expect_same_books(const lock::LockEvaluator& got,
                       const lock::LockEvaluator& want) {
  EXPECT_EQ(got.trial_counts().snr_modulator,
            want.trial_counts().snr_modulator);
  EXPECT_EQ(got.trial_counts().snr_receiver, want.trial_counts().snr_receiver);
  EXPECT_EQ(got.trial_counts().sfdr, want.trial_counts().sfdr);
}

void expect_same_faults(const fault::FaultInjector& got,
                        const fault::FaultInjector& want) {
  EXPECT_EQ(got.counts().meas_spikes, want.counts().meas_spikes);
  EXPECT_EQ(got.counts().meas_dropouts, want.counts().meas_dropouts);
  EXPECT_EQ(got.counts().words_stuck, want.counts().words_stuck);
  EXPECT_EQ(got.counts().total(), want.counts().total());
}

/// Runs the attack and the reference loop `runs` times each, on fresh
/// chip-0 evaluators under `campaign`, and compares every result, the
/// trial counts and the fault tallies. Consecutive runs share one attack
/// (and one reference RNG), so they also check where a run leaves the
/// attack's RNG. Returns the attack's first result.
BruteForceResult expect_equivalent(const Campaign& campaign,
                                   std::uint64_t seed,
                                   const BruteForceOptions& options,
                                   int runs = 1) {
  fault::FaultInjector got_faults(campaign.plan);
  fault::FaultInjector want_faults(campaign.plan);
  auto got_ev = fixtures::make_evaluator(0);
  auto want_ev = fixtures::make_evaluator(0);
  if (campaign.attach) {
    got_ev.set_fault_injector(&got_faults);
    want_ev.set_fault_injector(&want_faults);
  }
  BruteForceAttack attack(got_ev, sim::Rng(seed));
  sim::Rng want_rng(seed);
  BruteForceResult first;
  for (int r = 0; r < runs; ++r) {
    SCOPED_TRACE(testing::Message()
                 << campaign.name << " batch_size=" << options.batch_size
                 << " run=" << r);
    const auto got = attack.run(options);
    const auto want = reference::brute_force(want_ev, want_rng, options);
    expect_same_result(got, want);
    expect_same_books(got_ev, want_ev);
    expect_same_faults(got_faults, want_faults);
    if (r == 0) first = got;
  }
  return first;
}

TEST(BruteForce, LookAheadMatchesPerBatchLoop) {
  // Budgets that end on a partial screen batch at every batch size.
  // Forcing mission mode passes more keys through the screen, so its
  // look-ahead groups close after fewer screen batches.
  for (const Campaign& campaign : campaigns()) {
    for (const std::uint64_t batch_size : {1u, 7u, 32u}) {
      for (const bool mission : {false, true}) {
        BruteForceOptions options;
        options.max_trials = 45;
        options.batch_size = batch_size;
        options.force_mission_mode = mission;
        SCOPED_TRACE(testing::Message() << "mission=" << mission);
        (void)expect_equivalent(campaign, 2024, options);
      }
    }
  }
}

/// Index of the last screen batch of the look-ahead group that holds
/// screen batch `target`: groups close once the clean screens predict
/// batch_size survivors.
std::size_t group_last_batch(lock::LockEvaluator& evaluator,
                             std::uint64_t seed,
                             const BruteForceOptions& options,
                             std::size_t target) {
  lock::BatchEvaluator batch(evaluator);
  sim::Rng rng(seed);
  std::uint64_t predicted = 0;
  for (std::size_t b = 0;; ++b) {
    std::vector<lock::Key64> keys;
    for (std::uint64_t i = 0; i < options.batch_size; ++i) {
      keys.push_back(lock::Key64::random(rng));
    }
    for (const double screen : batch.clean_snr_modulator(
             keys, evaluator.options().input_dbm)) {
      if (screen >= options.screen_snr_db) ++predicted;
    }
    if (predicted >= options.batch_size) {
      if (b >= target) return b;
      predicted = 0;
    }
  }
}

TEST(BruteForce, LookAheadMatchesPerBatchLoopOnMidGroupSuccess) {
  // Spikes of 60 dB pass a random key through the full check. Seed and
  // plan are chosen so the success lands in screen batch 15 of the look-
  // ahead group spanning batches 14..27: the attack has measured keys it
  // never books. A second run from the same attack must then draw the
  // keys the per-batch loop would draw.
  constexpr std::uint64_t kSeed = 2028;
  Campaign campaign{"spikes-60dB", true, spike_plan(41)};
  campaign.plan.meas_spike_prob = 0.5;
  campaign.plan.meas_spike_sigma_db = 60.0;
  BruteForceOptions options;
  options.max_trials = 400;
  options.batch_size = 7;
  const BruteForceResult first =
      expect_equivalent(campaign, kSeed, options, /*runs=*/2);
  ASSERT_TRUE(first.success);
  ASSERT_LT(first.trials, options.max_trials);
  const std::size_t success_batch =
      static_cast<std::size_t>((first.trials - 1) / options.batch_size);
  auto clean_ev = fixtures::make_evaluator(0);
  EXPECT_LT(success_batch,
            group_last_batch(clean_ev, kSeed, options, success_batch));
}

}  // namespace
