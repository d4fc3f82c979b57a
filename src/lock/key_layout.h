// Bit layout of the 64-bit configuration word / secret key.
//
// The paper's receiver embeds 64 programming bits in the analog section
// (4 VGLNA + 60 modulator). This module is the single source of truth for
// how those bits pack into a Key64 and how they decode into the
// rf::ReceiverConfig the behavioral chip consumes.
//
//   bits  0- 3 : VGLNA gain word            (16 gain levels)
//   bits  4-11 : Cc coarse capacitor array  (binary-weighted)
//   bits 12-19 : Cf fine capacitor array    (binary-weighted)
//   bits 20-25 : -Gm Q-enhancement code
//   bits 26-31 : Gmin bias code
//   bits 32-37 : feedback DAC bias code
//   bits 38-43 : pre-amplifier bias code
//   bits 44-49 : comparator bias code
//   bits 50-53 : loop delay trim
//   bits 54-57 : output buffer gain (calibration path)
//   bit  58    : feedback loop enable        (cal step 4)
//   bit  59    : comparator clock enable     (cal step 1)
//   bit  60    : Gmin enable                 (cal step 3)
//   bit  61    : output buffer in path       (cal step 2)
//   bits 62-63 : output test mux (0 = mission mode)
#pragma once

#include <array>

#include "lock/key64.h"
#include "rf/receiver.h"
#include "sim/bitfield.h"

namespace analock::lock {

/// Field positions inside the key word.
struct KeyLayout {
  static constexpr sim::BitRange kVglnaGain{0, 4};
  static constexpr sim::BitRange kCapCoarse{4, 8};
  static constexpr sim::BitRange kCapFine{12, 8};
  static constexpr sim::BitRange kQEnh{20, 6};
  static constexpr sim::BitRange kGminBias{26, 6};
  static constexpr sim::BitRange kDacBias{32, 6};
  static constexpr sim::BitRange kPreampBias{38, 6};
  static constexpr sim::BitRange kCompBias{44, 6};
  static constexpr sim::BitRange kLoopDelay{50, 4};
  static constexpr sim::BitRange kOutBuffer{54, 4};
  static constexpr unsigned kFeedbackEnable = 58;
  static constexpr unsigned kCompClockEnable = 59;
  static constexpr unsigned kGminEnable = 60;
  static constexpr unsigned kBufferInPath = 61;
  static constexpr sim::BitRange kTestMux{62, 2};

  /// A multi-bit tuning field and the name reports give it.
  struct Field {
    const char* name;
    sim::BitRange range;
  };
  /// The ten tuning fields a netlist-level attacker can identify as
  /// distinct knobs, in key-bit order: the only list of them.
  static constexpr std::array<Field, 10> kTuningFields{{
      {"vglna-gain", kVglnaGain},
      {"cap-coarse", kCapCoarse},
      {"cap-fine", kCapFine},
      {"q-enh", kQEnh},
      {"gmin-bias", kGminBias},
      {"dac-bias", kDacBias},
      {"preamp-bias", kPreampBias},
      {"comp-bias", kCompBias},
      {"loop-delay", kLoopDelay},
      {"out-buffer", kOutBuffer},
  }};
  /// The four single mode bits, in key-bit order. With the tuning fields
  /// and kTestMux they tile the word.
  static constexpr std::array<unsigned, 4> kModeBits{
      kFeedbackEnable, kCompClockEnable, kGminEnable, kBufferInPath};

  /// Total number of key bits (the paper's 64).
  static constexpr unsigned kKeyBits = 64;
  /// Modulator share of the key (the paper's 60).
  static constexpr unsigned kModulatorBits = 60;
};

/// Packs a decoded receiver configuration into the 64-bit key word.
/// The 3 digital-section bits are not part of the key (paper Section V.A).
[[nodiscard]] Key64 encode_key(const rf::ReceiverConfig& config);

/// Unpacks a key word into a receiver configuration. `digital_mode` fills
/// the non-locked digital bits.
[[nodiscard]] rf::ReceiverConfig decode_key(const Key64& key,
                                            std::uint32_t digital_mode = 0);

/// True when the mode bits select normal (mission) operation: loop closed,
/// comparator clocked, input connected, calibration buffer out of the
/// path, test mux off.
[[nodiscard]] bool is_mission_mode(const Key64& key);

/// Returns `key` with the mode bits forced to mission-mode values (used by
/// attacks that have reverse-engineered the mode-bit semantics).
[[nodiscard]] Key64 force_mission_mode(const Key64& key);

}  // namespace analock::lock
