// Unit tests for the Key64 type.
#include <gtest/gtest.h>

#include "lock/key64.h"

namespace {

using analock::lock::Key64;
using analock::sim::BitRange;
using analock::sim::Rng;

TEST(Key64, DefaultIsZero) {
  EXPECT_EQ(Key64{}.bits(), 0ull);
}

TEST(Key64, BitAccessors) {
  Key64 k;
  k = k.with_bit(5, true);
  EXPECT_TRUE(k.bit(5));
  EXPECT_FALSE(k.bit(4));
  k = k.with_bit(5, false);
  EXPECT_EQ(k.bits(), 0ull);
}

TEST(Key64, FieldAccessors) {
  constexpr BitRange r{8, 6};
  Key64 k = Key64{}.with_field(r, 0x2A);
  EXPECT_EQ(k.field(r), 0x2Aull);
  EXPECT_EQ(k.bits(), 0x2Aull << 8);
}

TEST(Key64, XorIsInvolution) {
  const Key64 a{0xDEADBEEF12345678ull};
  const Key64 b{0x0F0F0F0F0F0F0F0Full};
  EXPECT_EQ((a ^ b) ^ b, a);
  EXPECT_EQ(a ^ a, Key64{});
}

TEST(Key64, HammingDistance) {
  EXPECT_EQ(Key64{0}.hamming_distance(Key64{0}), 0u);
  EXPECT_EQ(Key64{0}.hamming_distance(Key64{~0ull}), 64u);
  EXPECT_EQ(Key64{0b111}.hamming_distance(Key64{0b100}), 2u);
}

TEST(Key64, HexRoundTrip) {
  const Key64 k{0x1e280c61c15dd09bull};
  EXPECT_EQ(k.to_hex(), "0x1e280c61c15dd09b");
  Key64 parsed;
  // analock-verify: allow(secret-branch, vartime-op) hex round trip of a fixed test vector, not provisioned key material
  ASSERT_TRUE(Key64::from_hex(k.to_hex(), parsed));
  EXPECT_EQ(parsed, k);
}

TEST(Key64, HexParsesWithoutPrefix) {
  Key64 parsed;
  ASSERT_TRUE(Key64::from_hex("ff", parsed));
  EXPECT_EQ(parsed.bits(), 0xFFull);
}

TEST(Key64, HexParsesUppercase) {
  Key64 parsed;
  ASSERT_TRUE(Key64::from_hex("0xABCDEF", parsed));
  EXPECT_EQ(parsed.bits(), 0xABCDEFull);
}

TEST(Key64, HexRejectsMalformed) {
  Key64 parsed;
  EXPECT_FALSE(Key64::from_hex("", parsed));
  EXPECT_FALSE(Key64::from_hex("0x", parsed));
  EXPECT_FALSE(Key64::from_hex("xyz", parsed));
  EXPECT_FALSE(Key64::from_hex("0x12345678901234567", parsed));  // 17 digits
}

TEST(Key64, RandomKeysDiffer) {
  Rng rng(1);
  const Key64 a = Key64::random(rng);
  const Key64 b = Key64::random(rng);
  EXPECT_NE(a, b);
}

TEST(Key64, RandomCoversHighBits) {
  Rng rng(1);
  std::uint64_t seen = 0;
  for (int i = 0; i < 200; ++i) seen |= Key64::random(rng).bits();
  EXPECT_EQ(seen, ~0ull);
}

}  // namespace
