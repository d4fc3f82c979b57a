// Programmable multi-standard RF receiver (paper Fig. 4): VGLNA ->
// BP RF sigma-delta modulator -> digital down-conversion + decimation.
//
// This is the locking demonstration vehicle. Its complete analog
// programming state is the 64-bit configuration word (4 VGLNA bits +
// 60 modulator bits) that the lock/ layer treats as the secret key.
// rf::lane_constants maps a configuration to the chip's block constants
// and rf::ReceiverBatch steps the chip; this header holds the decoded
// configuration and the test stimuli.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "rf/bp_sigma_delta.h"
#include "rf/digital_backend.h"
#include "rf/standards.h"
#include "rf/vglna.h"

namespace analock::rf {

/// Complete decoded programming state of the receiver.
struct ReceiverConfig {
  std::uint32_t vglna_gain = 9;  ///< 4-bit VGLNA gain word
  ModulatorConfig modulator;     ///< 60-bit analog modulator state
  std::uint32_t digital_mode = 0;  ///< 3-bit digital section (not locked)

  friend bool operator==(const ReceiverConfig&,
                         const ReceiverConfig&) = default;
};

/// Default settle time (input samples) before captures are recorded.
inline constexpr std::size_t kSettleSamples = 2048;

/// Number of input samples needed for a receiver capture that yields
/// `baseband_points` decimated samples.
[[nodiscard]] std::size_t receiver_input_length(std::size_t baseband_points,
                                                std::size_t settle =
                                                    kSettleSamples,
                                                std::size_t settle_baseband =
                                                    16);

/// Single-tone RF stimulus for `standard`: power `dbm`, frequency
/// F0 + `offset_hz` (default: 16 bins of an 8192-point FFT at fs, so the
/// tone is in-band but off the exact fs/4 line and limiter harmonics fold
/// outside the metrology band).
[[nodiscard]] std::vector<double> make_test_tone(const Standard& standard,
                                                 double dbm, std::size_t n,
                                                 double offset_hz = -1.0);

/// Two-tone SFDR stimulus: equal powers `dbm_per_tone`, spacing
/// `spacing_hz` centered on F0 + offset (paper: 10 MHz spacing).
[[nodiscard]] std::vector<double> make_two_tone(const Standard& standard,
                                                double dbm_per_tone,
                                                std::size_t n,
                                                double spacing_hz = 10.0e6);

/// Default test-tone offset from F0 for a standard (16 bins of an
/// 8192-point FFT at fs).
[[nodiscard]] double default_tone_offset_hz(const Standard& standard);

}  // namespace analock::rf
