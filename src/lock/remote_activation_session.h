// Session semantics for remote activation over a lossy channel.
//
// The bare RemoteActivationChip::install_wrapped_key is a one-shot call
// that assumes the ciphertext arrives intact. In production the
// design-house <-> test-floor link drops, corrupts, and delays messages,
// so activation needs a protocol:
//
//   design house                         test floor / chip
//   ------------                         -----------------
//   RemoteActivationSession   --frame->  RemoteActivationChipEndpoint
//     CRC-framed request                   CRC check, seq dedup,
//     timeout on the ack        <-ack--    install_wrapped_key
//     bounded exponential
//     backoff + jitter, retry
//
// Frames carry a CRC-32 so channel corruption is told apart from a
// cryptographic mismatch: a corrupted frame is NACKed and retried, a
// framing-check failure under a valid CRC means the wrong chip and
// aborts the session. Retransmits reuse the request's sequence number,
// which lets the endpoint acknowledge an already-installed slot
// idempotently (the install-succeeded-but-ack-lost case) while still
// rejecting true replays (a foreign sequence number against a
// provisioned slot).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "fault/lossy_channel.h"
#include "lock/remote_activation.h"
#include "sim/rng.h"

namespace analock::lock {

/// Chip-side verdict on one activation request.
enum class AckStatus : std::uint8_t {
  kOk = 1,       ///< installed (or idempotent retransmit of an install)
  kBadCrc = 2,   ///< frame failed the CRC — channel corruption, retry
  kBadKey = 3,   ///< decryption framing check failed — wrong chip
  kReplay = 4,   ///< slot already provisioned under another sequence
  kBadSlot = 5,  ///< slot out of range
};

[[nodiscard]] const char* to_string(AckStatus status);

/// Wire form of one activation request / acknowledgment.
/// Request: seq(4) slot(4) c_lo(8) c_hi(8) crc32(4) = 28 bytes, LE.
/// Ack:     seq(4) status(1) crc32(4)              =  9 bytes, LE.
inline constexpr std::size_t kRequestFrameBytes = 28;
inline constexpr std::size_t kAckFrameBytes = 9;

[[nodiscard]] std::vector<std::uint8_t> encode_request(
    std::uint32_t seq, std::uint32_t slot, const WrappedKey& wrapped);
[[nodiscard]] std::vector<std::uint8_t> encode_ack(std::uint32_t seq,
                                                   AckStatus status);

struct DecodedAck {
  std::uint32_t seq = 0;
  AckStatus status = AckStatus::kBadCrc;
};
/// Returns nullopt when the frame is malformed or fails its CRC.
[[nodiscard]] std::optional<DecodedAck> decode_ack(
    std::span<const std::uint8_t> frame);

/// Test-floor endpoint: feeds delivered frames to the chip and builds
/// the acknowledgment. Tracks the sequence number that provisioned each
/// slot so retransmits ack idempotently.
class RemoteActivationChipEndpoint {
 public:
  explicit RemoteActivationChipEndpoint(RemoteActivationChip& chip);

  /// Processes one delivered frame. Returns the ack frame to send back,
  /// or an empty vector when the frame is too mangled to answer (the
  /// sender's timeout handles it).
  [[nodiscard]] std::vector<std::uint8_t> handle_frame(
      std::span<const std::uint8_t> frame);

 private:
  RemoteActivationChip* chip_;
  std::vector<std::optional<std::uint32_t>> installed_seq_;
};

/// Design-house side of one activation conversation.
class RemoteActivationSession {
 public:
  /// An ack arriving later than this many ticks after the request was
  /// sent is treated as a timeout.
  static constexpr std::uint64_t kAckTimeoutTicks = 4;
  /// The wait before retransmit n is min(2^(n-1), kBackoffMaxTicks)
  /// ticks, scaled by 1 + U(-kJitterFrac, +kJitterFrac).
  static constexpr std::uint64_t kBackoffMaxTicks = 32;
  static constexpr double kJitterFrac = 0.5;

  struct Options {
    unsigned max_attempts = 8;  ///< requests sent before giving up
  };

  struct Result {
    bool success = false;
    unsigned attempts = 0;          ///< requests actually sent
    std::uint64_t elapsed_ticks = 0;
    unsigned timeouts = 0;          ///< no usable ack within the window
    unsigned bad_acks = 0;          ///< ack corrupted or wrong sequence
    unsigned nacks = 0;             ///< explicit kBadCrc NACKs received
    /// Last chip verdict seen, if any ack got through.
    std::optional<AckStatus> last_status;
  };

  /// The endpoint and channel are not owned. `session_seed` drives the
  /// jitter stream, so a session is reproducible.
  RemoteActivationSession(RemoteActivationChipEndpoint& endpoint,
                          fault::LossyChannel& channel)
      : RemoteActivationSession(endpoint, channel, Options{}) {}
  RemoteActivationSession(RemoteActivationChipEndpoint& endpoint,
                          fault::LossyChannel& channel, Options options,
                          std::uint64_t session_seed = 1);

  /// Runs the full retry protocol for one slot. The configuration key is
  /// wrapped with `chip_pub` (obtained out-of-band at first power-on).
  Result activate(std::size_t slot, const Key64& config_key,
                  const RsaPublicKey& chip_pub);

 private:
  RemoteActivationChipEndpoint* endpoint_;
  fault::LossyChannel* channel_;
  Options options_;
  sim::Rng jitter_rng_;
  std::uint32_t next_seq_ = 1;
};

}  // namespace analock::lock
