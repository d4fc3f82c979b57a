#include "lock/key_layout.h"

#include "lock/ct_equal.h"

namespace analock::lock {

// Compile-time layout rules: every field fits in the word, no two
// fields overlap, and the fields plus the four single mode bits tile
// exactly the paper's 64 key bits. A layout edit that breaks the
// invariant fails right here instead of scrambling keys.
namespace {

constexpr sim::BitRange kFields[] = {
    KeyLayout::kVglnaGain, KeyLayout::kCapCoarse, KeyLayout::kCapFine,
    KeyLayout::kQEnh,      KeyLayout::kGminBias,  KeyLayout::kDacBias,
    KeyLayout::kPreampBias, KeyLayout::kCompBias, KeyLayout::kLoopDelay,
    KeyLayout::kOutBuffer, KeyLayout::kTestMux};
constexpr unsigned kModeBits[] = {
    KeyLayout::kFeedbackEnable, KeyLayout::kCompClockEnable,
    KeyLayout::kGminEnable, KeyLayout::kBufferInPath};

constexpr std::uint64_t layout_coverage() {
  std::uint64_t covered = 0;
  for (const sim::BitRange& f : kFields) covered |= f.mask();
  for (const unsigned b : kModeBits) covered |= std::uint64_t{1} << b;
  return covered;
}

constexpr bool layout_disjoint() {
  std::uint64_t covered = 0;
  for (const sim::BitRange& f : kFields) {
    if ((covered & f.mask()) != 0) return false;
    covered |= f.mask();
  }
  for (const unsigned b : kModeBits) {
    if ((covered >> b) & 1u) return false;
    covered |= std::uint64_t{1} << b;
  }
  return true;
}

constexpr bool layout_ranges_valid() {
  for (const sim::BitRange& f : kFields) {
    if (!f.valid()) return false;
  }
  for (const unsigned b : kModeBits) {
    if (b >= KeyLayout::kKeyBits) return false;
  }
  return true;
}

static_assert(layout_ranges_valid(), "a key field falls outside the word");
static_assert(layout_disjoint(), "key fields overlap");
static_assert(layout_coverage() == ~std::uint64_t{0},
              "key fields do not tile all 64 bits");

}  // namespace

Key64 encode_key(const rf::ReceiverConfig& config) {
  using L = KeyLayout;
  const rf::ModulatorConfig& m = config.modulator;
  Key64 key;
  key = key.with_field(L::kVglnaGain, config.vglna_gain & 0xFu);
  key = key.with_field(L::kCapCoarse, m.cap_coarse & 0xFFu);
  key = key.with_field(L::kCapFine, m.cap_fine & 0xFFu);
  key = key.with_field(L::kQEnh, m.q_enh & 0x3Fu);
  key = key.with_field(L::kGminBias, m.gmin_bias & 0x3Fu);
  key = key.with_field(L::kDacBias, m.dac_bias & 0x3Fu);
  key = key.with_field(L::kPreampBias, m.preamp_bias & 0x3Fu);
  key = key.with_field(L::kCompBias, m.comp_bias & 0x3Fu);
  key = key.with_field(L::kLoopDelay, m.loop_delay & 0xFu);
  key = key.with_field(L::kOutBuffer, m.out_buffer & 0xFu);
  key = key.with_bit(L::kFeedbackEnable, m.feedback_enable);
  key = key.with_bit(L::kCompClockEnable, m.comp_clock_enable);
  key = key.with_bit(L::kGminEnable, m.gmin_enable);
  key = key.with_bit(L::kBufferInPath, m.buffer_in_path);
  key = key.with_field(L::kTestMux, m.test_mux & 0x3u);
  return key;
}

rf::ReceiverConfig decode_key(const Key64& key, std::uint32_t digital_mode) {
  using L = KeyLayout;
  rf::ReceiverConfig config;
  config.vglna_gain = static_cast<std::uint32_t>(key.field(L::kVglnaGain));
  config.digital_mode = digital_mode;
  rf::ModulatorConfig& m = config.modulator;
  m.cap_coarse = static_cast<std::uint32_t>(key.field(L::kCapCoarse));
  m.cap_fine = static_cast<std::uint32_t>(key.field(L::kCapFine));
  m.q_enh = static_cast<std::uint32_t>(key.field(L::kQEnh));
  m.gmin_bias = static_cast<std::uint32_t>(key.field(L::kGminBias));
  m.dac_bias = static_cast<std::uint32_t>(key.field(L::kDacBias));
  m.preamp_bias = static_cast<std::uint32_t>(key.field(L::kPreampBias));
  m.comp_bias = static_cast<std::uint32_t>(key.field(L::kCompBias));
  m.loop_delay = static_cast<std::uint32_t>(key.field(L::kLoopDelay));
  m.out_buffer = static_cast<std::uint32_t>(key.field(L::kOutBuffer));
  m.feedback_enable = key.bit(L::kFeedbackEnable);
  m.comp_clock_enable = key.bit(L::kCompClockEnable);
  m.gmin_enable = key.bit(L::kGminEnable);
  m.buffer_in_path = key.bit(L::kBufferInPath);
  m.test_mux = static_cast<std::uint32_t>(key.field(L::kTestMux));
  return config;
}

// analock: ct_safe
bool is_mission_mode(const Key64& key) {
  using L = KeyLayout;
  // Branch-free conjunction: short-circuit && would exit at the first
  // failing gate bit, so the check's latency would reveal which of the
  // five mode conditions a key fails. Fold them arithmetically instead.
  const std::uint64_t ok =
      static_cast<std::uint64_t>(key.bit(L::kFeedbackEnable)) &
      static_cast<std::uint64_t>(key.bit(L::kCompClockEnable)) &
      static_cast<std::uint64_t>(key.bit(L::kGminEnable)) &
      static_cast<std::uint64_t>(!key.bit(L::kBufferInPath)) &
      static_cast<std::uint64_t>(
          analock::ct_equal(key.field(L::kTestMux), std::uint64_t{0}));
  return ok != 0;
}

Key64 force_mission_mode(const Key64& key) {
  using L = KeyLayout;
  return key.with_bit(L::kFeedbackEnable, true)
      .with_bit(L::kCompClockEnable, true)
      .with_bit(L::kGminEnable, true)
      .with_bit(L::kBufferInPath, false)
      .with_field(L::kTestMux, 0);
}

}  // namespace analock::lock
