// Unit tests for the product-level locked-receiver facade.
#include <gtest/gtest.h>

#include "lock/locked_receiver.h"
#include "rf/standards.h"
#include "sim/rng.h"

namespace {

using namespace analock;
using namespace analock::lock;

LockedReceiver make_chip() {
  return LockedReceiver(rf::standard_max_3ghz(),
                        sim::ProcessVariation::nominal(), sim::Rng(77));
}

TEST(LockedReceiver, StartsUnkeyed) {
  auto chip = make_chip();
  EXPECT_FALSE(chip.active_key().has_value());
  // The un-keyed fabric is the all-zero word: loop open, input off.
  EXPECT_FALSE(chip.config().modulator.feedback_enable);
  EXPECT_FALSE(chip.config().modulator.gmin_enable);
}

TEST(LockedReceiver, ApplyKeyConfiguresFabric) {
  auto chip = make_chip();
  rf::ReceiverConfig cfg;
  cfg.vglna_gain = 9;
  cfg.modulator.cap_coarse = 8;
  const Key64 key = encode_key(cfg);
  chip.apply_key(key);
  ASSERT_TRUE(chip.active_key().has_value());
  EXPECT_EQ(*chip.active_key(), key);
  EXPECT_EQ(chip.config().vglna_gain, 9u);
  EXPECT_EQ(chip.config().modulator.cap_coarse, 8u);
}

TEST(LockedReceiver, PowerOnFromLut) {
  auto chip = make_chip();
  TamperProofLutScheme lut(3);
  const Key64 key{0x1e280c61c15dd09bull};
  lut.provision(1, key);
  EXPECT_TRUE(chip.power_on(lut, 1));
  ASSERT_TRUE(chip.active_key().has_value());
  EXPECT_EQ(*chip.active_key(), key);
}

TEST(LockedReceiver, PowerOnEmptySlotFails) {
  auto chip = make_chip();
  TamperProofLutScheme lut(3);
  EXPECT_FALSE(chip.power_on(lut, 0));
  EXPECT_FALSE(chip.active_key().has_value());
  // Fabric falls back to the all-zero non-functional state.
  EXPECT_FALSE(chip.config().modulator.feedback_enable);
}

TEST(LockedReceiver, PowerOnFromPufScheme) {
  auto chip = make_chip();
  ArbiterPuf puf(sim::Rng(42));
  PufXorScheme scheme(puf, 2);
  const Key64 key{0xCAFEBABE87654321ull};
  scheme.provision(0, key);
  EXPECT_TRUE(chip.power_on(scheme, 0));
  EXPECT_EQ(*chip.active_key(), key);
}

TEST(LockedReceiver, PowerOnAfterTamperFails) {
  auto chip = make_chip();
  TamperProofLutScheme lut(1);
  lut.provision(0, Key64{123});
  EXPECT_TRUE(chip.power_on(lut, 0));
  lut.tamper();
  EXPECT_FALSE(chip.power_on(lut, 0));
  EXPECT_FALSE(chip.active_key().has_value());
}

TEST(LockedReceiver, DigitalModeComesFromStandard) {
  LockedReceiver chip(rf::standard_bluetooth(),
                      sim::ProcessVariation::nominal(), sim::Rng(1));
  chip.apply_key(Key64{0x1234});
  EXPECT_EQ(chip.config().digital_mode,
            rf::standard_bluetooth().digital_mode);
}

}  // namespace
