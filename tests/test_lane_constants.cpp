// Pin of the configuration-word -> per-lane constants map
// (rf::lane_constants): every numeric constant rf::ReceiverBatch steps a
// lane with, for 66 keys on 7 chips, folded into one FNV-1a digest of
// the doubles' bit patterns per chip. The batch and its parity reference
// share this map, so the parity tests cannot catch a wrong map; this pin
// can. The digests were recorded from the per-block maps this function
// replaced.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "calib/calibrator.h"
#include "lock/key64.h"
#include "lock/key_layout.h"
#include "rf/lane_constants.h"
#include "rf/receiver.h"
#include "rf/standards.h"
#include "sim/process.h"
#include "sim/rng.h"

namespace {

using namespace analock;

/// The numeric constants of one lane, in digest order.
std::vector<double> lane_fields(const rf::Standard& standard,
                                const sim::ProcessVariation& pv,
                                const rf::ReceiverConfig& config) {
  const rf::LaneConstants k = rf::lane_constants(standard, pv, config);
  const rf::Vglna::Stage& st = k.front_end.vglna_stage;
  return {st.gain, st.a3, st.x_peak, st.y_peak,
          k.front_end.vglna_rms, k.front_end.gm, k.front_end.gm_iip3,
          k.front_end.gm_rms, k.res1_cos, k.res1_radius, k.res2_cos,
          k.res2_radius, k.preamp_gain, k.preamp_rms, k.comp_offset,
          k.comp_rms, k.dac_plus, k.dac_minus, k.dac_rms, k.delay_samples,
          k.buffer_gain, k.buffer_rms};
}

/// FNV-1a over the bytes of each double's bit pattern, low byte first.
void fold(std::uint64_t& hash, double value) {
  const auto bits = std::bit_cast<std::uint64_t>(value);
  for (unsigned b = 0; b < 8; ++b) {
    hash ^= (bits >> (8 * b)) & 0xFFu;
    hash *= 0x100000001b3ULL;
  }
}

/// Digest of chip `chip_id` on `standard`: 64 random keys, then the
/// chip's calibrated key and its deceptive variant (loop open,
/// comparator unclocked).
std::uint64_t chip_digest(const rf::Standard& standard,
                          std::uint64_t chip_id) {
  sim::Rng master(20260704);
  const auto pv = sim::ProcessVariation::monte_carlo(master, chip_id);
  calib::Calibrator calibrator(standard, pv, master.fork("chip", chip_id));
  const lock::Key64 calibrated = calibrator.run().key;
  using L = lock::KeyLayout;
  std::vector<lock::Key64> keys;
  sim::Rng key_rng(2026);
  for (int i = 0; i < 64; ++i) keys.push_back(lock::Key64::random(key_rng));
  keys.push_back(calibrated);
  keys.push_back(calibrated.with_bit(L::kFeedbackEnable, false)
                     .with_bit(L::kCompClockEnable, false));
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const lock::Key64& key : keys) {
    const auto config = lock::decode_key(key, standard.digital_mode);
    for (const double v : lane_fields(standard, pv, config)) fold(hash, v);
  }
  return hash;
}

TEST(LaneConstants, DigestsArePinned) {
  struct Pin {
    const rf::Standard* standard;
    std::uint64_t chip;
    std::uint64_t digest;
  };
  const std::array<Pin, 7> pins = {{
      {&rf::standard_max_3ghz(), 0, 0x8116c74587b3f6c9ULL},
      {&rf::standard_bluetooth(), 0, 0x50082f6cea8828a2ULL},
      {&rf::standard_zigbee(), 0, 0xa4b6c383aed9f4cdULL},
      {&rf::standard_wifi_80211b(), 0, 0x1673e2af572e0d95ULL},
      {&rf::standard_low_1p5ghz(), 0, 0x785fbe2a39960d08ULL},
      {&rf::standard_gps_l1(), 0, 0xa3abd3d6b2587d7fULL},
      {&rf::standard_max_3ghz(), 5, 0x2ffdc0a1723f0339ULL},
  }};
  for (const Pin& pin : pins) {
    const std::uint64_t got = chip_digest(*pin.standard, pin.chip);
    EXPECT_EQ(got, pin.digest)
        << pin.standard->name << " chip " << pin.chip << ": 0x" << std::hex
        << got;
  }
}

}  // namespace
