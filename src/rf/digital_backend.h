// Digital section of the receiver (paper Fig. 4): input slicer, fs/4
// down-conversion mixer, and the decimation filter chain (CIC followed by
// two half-band stages, total decimation 64 = the metrology OSR).
//
// The digital section has its own 3 programming bits (channel-filter
// selection); the paper excludes them from the locking key because their
// calibration is straightforward, and so do we.
//
// rf::ReceiverBatch runs the chain lane by lane from these constants and
// filter designs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace analock::rf {

struct DigitalBackend {
  static constexpr std::size_t kCicStages = 4;
  static constexpr std::size_t kCicFactor = 16;
  static constexpr std::size_t kTotalDecimation = 64;
  /// Input thresholds of the first digital gate (Schmitt-style receiver):
  /// the modulator output only registers as a new logic level when it
  /// crosses +/-kLogicVih; anything weaker holds the previous bit. A
  /// clocked comparator always swings past the thresholds, but the
  /// sub-threshold analog waveform of an un-clocked comparator (the
  /// paper's "deceptive" invalid key) stutters and freezes here — the
  /// mechanism behind the SNR collapse at the receiver output (Fig. 9).
  static constexpr double kLogicVih = 0.5;
  static constexpr double kLogicVil = -0.5;

  /// Channel-filter taps (31, Hamming-windowed) for a 3-bit mode.
  [[nodiscard]] static std::vector<double> channel_taps_for_mode(
      std::uint32_t mode);
};

}  // namespace analock::rf
