// Integration tests: the full product flow of the paper.
//
// design house calibrates chip -> provisions key manager -> chip unlocks
// at power-on -> attacker without the key gets a broken receiver.
#include <gtest/gtest.h>

#include "attack/brute_force.h"
#include "calibrated_fixture.h"
#include "lock/key_manager.h"
#include "lock/locked_receiver.h"

namespace {

using namespace analock;
using namespace analock::lock;

TEST(EndToEnd, LutProvisioningFlow) {
  const auto& c = fixtures::chip(0);
  ASSERT_TRUE(c.cal.success);

  // Design house provisions the tamper-proof LUT with the calibrated key.
  TamperProofLutScheme lut(1);
  lut.provision(0, c.cal.key);

  // The fielded chip powers on and loads its configuration.
  LockedReceiver fielded(rf::standard_max_3ghz(), c.pv, c.rng);
  ASSERT_TRUE(fielded.power_on(lut, 0));

  // It meets spec.
  auto ev = fixtures::make_evaluator(0);
  EXPECT_TRUE(ev.evaluate(*fielded.active_key()).unlocked());
}

TEST(EndToEnd, PufProvisioningFlow) {
  const auto& c = fixtures::chip(0);
  ArbiterPuf puf(c.rng.fork("puf"));
  PufXorScheme scheme(puf, 1);
  scheme.provision(0, c.cal.key);

  LockedReceiver fielded(rf::standard_max_3ghz(), c.pv, c.rng);
  ASSERT_TRUE(fielded.power_on(scheme, 0));
  EXPECT_EQ(*fielded.active_key(), c.cal.key);
}

TEST(EndToEnd, ClonedChipWithStolenUserKeysIsGarbage) {
  // Recycling/cloning defense of Fig. 3(b): user keys moved to another
  // die unwrap to garbage and the clone stays locked.
  const auto& victim = fixtures::chip(0);
  ArbiterPuf victim_puf(victim.rng.fork("puf"));
  PufXorScheme victim_scheme(victim_puf, 1);
  victim_scheme.provision(0, victim.cal.key);

  const auto& clone = fixtures::chip(1);  // different die
  ArbiterPuf clone_puf(clone.rng.fork("puf"));
  PufXorScheme clone_scheme(clone_puf, 1);
  clone_scheme.install_user_key(0, *victim_scheme.user_key(0));

  LockedReceiver cloned(rf::standard_max_3ghz(), clone.pv, clone.rng);
  ASSERT_TRUE(cloned.power_on(clone_scheme, 0));
  auto ev = fixtures::make_evaluator(1);
  EXPECT_FALSE(ev.evaluate(*cloned.active_key()).unlocked());
}

TEST(EndToEnd, OverproducedChipWithoutProvisioningIsDead) {
  // Overproduction defense: a fab-fresh chip whose LUT was never
  // provisioned cannot enter mission mode.
  const auto& c = fixtures::chip(1);
  TamperProofLutScheme empty_lut(1);
  LockedReceiver gray_market(rf::standard_max_3ghz(), c.pv, c.rng);
  EXPECT_FALSE(gray_market.power_on(empty_lut, 0));
  EXPECT_FALSE(gray_market.config().modulator.gmin_enable);
}

TEST(EndToEnd, RemarkedChipIsPoisoned) {
  // Remarking defense: after failed calibration the design house loads a
  // wrong configuration; the chip is totally malfunctional.
  const auto& c = fixtures::chip(0);
  TamperProofLutScheme lut(1);
  lut.provision(0, c.cal.key);
  sim::Rng poison_rng(123);
  lut.poison(0, poison_rng);

  LockedReceiver remarked(rf::standard_max_3ghz(), c.pv, c.rng);
  ASSERT_TRUE(remarked.power_on(lut, 0));
  auto ev = fixtures::make_evaluator(0);
  EXPECT_FALSE(ev.evaluate(*remarked.active_key()).unlocked());
}

TEST(EndToEnd, PiracyWithoutKeyFails) {
  // The overproducer tries brute force on their own silicon.
  auto ev = fixtures::make_evaluator(1);
  attack::BruteForceAttack bf(ev, sim::Rng(5000));
  attack::BruteForceOptions options;
  options.max_trials = 150;
  const auto result = bf.run(options);
  EXPECT_FALSE(result.success);
}

TEST(EndToEnd, MultiStandardLutServesAllSlots) {
  // One LUT line per standard (Fig. 3(a)); each slot programs its own
  // mode independently.
  const auto& c = fixtures::chip(0);
  TamperProofLutScheme lut(rf::all_standards().size());
  for (std::size_t s = 0; s < rf::all_standards().size(); ++s) {
    lut.provision(s, Key64{c.cal.key.bits() + s});  // stand-in keys
  }
  LockedReceiver chip(rf::standard_max_3ghz(), c.pv, c.rng);
  for (std::size_t s = 0; s < rf::all_standards().size(); ++s) {
    ASSERT_TRUE(chip.power_on(lut, s));
    EXPECT_EQ(chip.active_key()->bits(), c.cal.key.bits() + s);
  }
}

}  // namespace
