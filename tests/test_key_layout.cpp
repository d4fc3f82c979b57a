// Unit tests for the 64-bit key layout (the paper's configuration word).
#include <gtest/gtest.h>

#include <array>

#include "lock/key_layout.h"
#include "sim/rng.h"

namespace {

using namespace analock;
using namespace analock::lock;
using L = KeyLayout;

TEST(KeyLayout, FieldsCoverExactly64BitsWithoutOverlap) {
  const std::array<sim::BitRange, 11> fields{
      L::kVglnaGain, L::kCapCoarse, L::kCapFine,    L::kQEnh,
      L::kGminBias,  L::kDacBias,   L::kPreampBias, L::kCompBias,
      L::kLoopDelay, L::kOutBuffer, L::kTestMux};
  const std::array<unsigned, 4> bits{L::kFeedbackEnable, L::kCompClockEnable,
                                     L::kGminEnable, L::kBufferInPath};
  std::uint64_t covered = 0;
  for (const auto& f : fields) {
    EXPECT_EQ(covered & f.mask(), 0ull) << "overlap at lsb " << f.lsb;
    covered |= f.mask();
  }
  for (const unsigned b : bits) {
    const std::uint64_t m = 1ull << b;
    EXPECT_EQ(covered & m, 0ull) << "overlap at bit " << b;
    covered |= m;
  }
  EXPECT_EQ(covered, ~0ull) << "all 64 bits must be assigned";
}

TEST(KeyLayout, TablesListFieldsAndModeBitsInKeyBitOrder) {
  // An independent literal copy of the tables every attack iterates: a
  // swapped, renamed or moved entry changes their search order.
  struct Expected {
    const char* name;
    unsigned lsb;
    unsigned width;
  };
  const std::array<Expected, 10> expected{{{"vglna-gain", 0, 4},
                                           {"cap-coarse", 4, 8},
                                           {"cap-fine", 12, 8},
                                           {"q-enh", 20, 6},
                                           {"gmin-bias", 26, 6},
                                           {"dac-bias", 32, 6},
                                           {"preamp-bias", 38, 6},
                                           {"comp-bias", 44, 6},
                                           {"loop-delay", 50, 4},
                                           {"out-buffer", 54, 4}}};
  ASSERT_EQ(L::kTuningFields.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_STREQ(L::kTuningFields[i].name, expected[i].name) << i;
    EXPECT_EQ(L::kTuningFields[i].range.lsb, expected[i].lsb) << i;
    EXPECT_EQ(L::kTuningFields[i].range.width, expected[i].width) << i;
  }
  EXPECT_EQ(L::kModeBits, (std::array<unsigned, 4>{58, 59, 60, 61}));
}

TEST(KeyLayout, PaperBitBudget) {
  // 4 VGLNA bits + 60 modulator bits = 64 (paper Section V.A).
  EXPECT_EQ(L::kKeyBits, 64u);
  EXPECT_EQ(L::kModulatorBits, 60u);
  EXPECT_EQ(L::kVglnaGain.width, 4u);
}

TEST(KeyLayout, EncodeDecodeRoundTrip) {
  sim::Rng rng(5);
  for (int trial = 0; trial < 200; ++trial) {
    const Key64 key = Key64::random(rng);
    const rf::ReceiverConfig cfg = decode_key(key, 3);
    const Key64 back = encode_key(cfg);
    EXPECT_EQ(back, key) << "trial " << trial << " key " << key.to_hex();
  }
}

TEST(KeyLayout, DecodeEncodesDigitalModeSeparately) {
  const rf::ReceiverConfig cfg = decode_key(Key64{}, 5);
  EXPECT_EQ(cfg.digital_mode, 5u);
  // The digital mode is NOT part of the key.
  EXPECT_EQ(encode_key(cfg), Key64{});
}

TEST(KeyLayout, FieldsLandWhereDocumented) {
  rf::ReceiverConfig cfg;
  cfg.vglna_gain = 0xF;
  cfg.modulator.cap_coarse = 0;
  const Key64 k1 = encode_key(cfg);
  EXPECT_EQ(k1.bits() & 0xFull, 0xFull);

  rf::ReceiverConfig cfg2;
  cfg2.vglna_gain = 0;
  cfg2.modulator = rf::ModulatorConfig{};
  cfg2.modulator.cap_coarse = 0xFF;
  cfg2.modulator.gmin_bias = 0;
  cfg2.modulator.dac_bias = 0;
  cfg2.modulator.preamp_bias = 0;
  cfg2.modulator.comp_bias = 0;
  cfg2.modulator.loop_delay = 0;
  cfg2.modulator.out_buffer = 0;
  cfg2.modulator.q_enh = 0;
  cfg2.modulator.feedback_enable = false;
  cfg2.modulator.comp_clock_enable = false;
  cfg2.modulator.gmin_enable = false;
  const Key64 k2 = encode_key(cfg2);
  EXPECT_EQ(k2.bits(), 0xFFull << 4);
}

TEST(KeyLayout, MissionModeDetection) {
  rf::ReceiverConfig cfg;  // defaults are mission mode
  EXPECT_TRUE(is_mission_mode(encode_key(cfg)));
  cfg.modulator.feedback_enable = false;
  EXPECT_FALSE(is_mission_mode(encode_key(cfg)));
  cfg.modulator.feedback_enable = true;
  cfg.modulator.test_mux = 2;
  EXPECT_FALSE(is_mission_mode(encode_key(cfg)));
  cfg.modulator.test_mux = 0;
  cfg.modulator.buffer_in_path = true;
  EXPECT_FALSE(is_mission_mode(encode_key(cfg)));
}

TEST(KeyLayout, ForceMissionModePreservesTuningFields) {
  sim::Rng rng(9);
  for (int trial = 0; trial < 50; ++trial) {
    const Key64 key = Key64::random(rng);
    const Key64 forced = force_mission_mode(key);
    EXPECT_TRUE(is_mission_mode(forced));
    // Tuning fields untouched.
    EXPECT_EQ(forced.field(L::kCapCoarse), key.field(L::kCapCoarse));
    EXPECT_EQ(forced.field(L::kGminBias), key.field(L::kGminBias));
    EXPECT_EQ(forced.field(L::kLoopDelay), key.field(L::kLoopDelay));
    EXPECT_EQ(forced.field(L::kVglnaGain), key.field(L::kVglnaGain));
  }
}

TEST(KeyLayout, RandomKeyMissionModeProbability) {
  // 6 mode bits (4 enables + 2 mux) must all be correct: 1/64 of random
  // keys are in mission mode. Check the empirical rate is in that vicinity.
  sim::Rng rng(11);
  int mission = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (is_mission_mode(Key64::random(rng))) ++mission;
  }
  const double rate = static_cast<double>(mission) / n;
  EXPECT_NEAR(rate, 1.0 / 64.0, 0.004);
}

TEST(KeyLayout, DecodedFieldsAreInHardwareRange) {
  sim::Rng rng(13);
  for (int i = 0; i < 100; ++i) {
    const auto cfg = decode_key(Key64::random(rng));
    EXPECT_LT(cfg.vglna_gain, 16u);
    EXPECT_LT(cfg.modulator.cap_coarse, 256u);
    EXPECT_LT(cfg.modulator.cap_fine, 256u);
    EXPECT_LT(cfg.modulator.q_enh, 64u);
    EXPECT_LT(cfg.modulator.gmin_bias, 64u);
    EXPECT_LT(cfg.modulator.loop_delay, 16u);
    EXPECT_LT(cfg.modulator.test_mux, 4u);
  }
}

}  // namespace
