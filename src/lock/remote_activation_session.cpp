#include "lock/remote_activation_session.h"

#include <algorithm>

#include "fault/crc32.h"
#include "lock/ct_equal.h"
#include "obs/trace.h"

namespace analock::lock {

namespace {

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

std::uint32_t get_u32(std::span<const std::uint8_t> in, std::size_t at) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) | in[at + static_cast<std::size_t>(i)];
  }
  return v;
}

std::uint64_t get_u64(std::span<const std::uint8_t> in, std::size_t at) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | in[at + static_cast<std::size_t>(i)];
  }
  return v;
}

void append_crc(std::vector<std::uint8_t>& frame) {
  put_u32(frame, fault::crc32(frame));
}

bool crc_valid(std::span<const std::uint8_t> frame) {
  // Frames carry wrapped key material; compare the integrity residue in
  // constant time so verification latency is payload-independent.
  const std::size_t body = frame.size() - 4;
  return ct_equal(fault::crc32(frame.first(body)), get_u32(frame, body));
}

}  // namespace

const char* to_string(AckStatus status) {
  switch (status) {
    case AckStatus::kOk: return "ok";
    case AckStatus::kBadCrc: return "bad-crc";
    case AckStatus::kBadKey: return "bad-key";
    case AckStatus::kReplay: return "replay";
    case AckStatus::kBadSlot: return "bad-slot";
  }
  return "unknown";
}

std::vector<std::uint8_t> encode_request(std::uint32_t seq,
                                         std::uint32_t slot,
                                         const WrappedKey& wrapped) {
  std::vector<std::uint8_t> frame;
  frame.reserve(kRequestFrameBytes);
  put_u32(frame, seq);
  put_u32(frame, slot);
  put_u64(frame, wrapped.c_lo);
  put_u64(frame, wrapped.c_hi);
  append_crc(frame);
  return frame;
}

std::vector<std::uint8_t> encode_ack(std::uint32_t seq, AckStatus status) {
  std::vector<std::uint8_t> frame;
  frame.reserve(kAckFrameBytes);
  put_u32(frame, seq);
  frame.push_back(static_cast<std::uint8_t>(status));
  append_crc(frame);
  return frame;
}

std::optional<DecodedAck> decode_ack(std::span<const std::uint8_t> frame) {
  if (frame.size() != kAckFrameBytes || !crc_valid(frame)) {
    return std::nullopt;
  }
  const std::uint8_t raw = frame[4];
  if (raw < static_cast<std::uint8_t>(AckStatus::kOk) ||
      raw > static_cast<std::uint8_t>(AckStatus::kBadSlot)) {
    return std::nullopt;
  }
  return DecodedAck{get_u32(frame, 0), static_cast<AckStatus>(raw)};
}

// ----------------------------------------------------------- endpoint --

RemoteActivationChipEndpoint::RemoteActivationChipEndpoint(
    RemoteActivationChip& chip)
    : chip_(&chip), installed_seq_(chip.slots()) {}

std::vector<std::uint8_t> RemoteActivationChipEndpoint::handle_frame(
    std::span<const std::uint8_t> frame) {
  if (frame.size() != kRequestFrameBytes) {
    return {};  // not even frame-shaped; let the sender time out
  }
  const std::uint32_t seq = get_u32(frame, 0);
  if (!crc_valid(frame)) {
    obs::count("fault.frame_crc_reject");
    return encode_ack(seq, AckStatus::kBadCrc);
  }
  const std::uint32_t slot = get_u32(frame, 4);
  if (slot >= chip_->slots()) {
    return encode_ack(seq, AckStatus::kBadSlot);
  }
  if (chip_->load(slot).has_value()) {
    // Retransmit of the installing request acks idempotently; any other
    // sequence number against a provisioned slot is a replay.
    if (installed_seq_[slot] == seq) {
      obs::count("recover.idempotent_retransmit");
      return encode_ack(seq, AckStatus::kOk);
    }
    return encode_ack(seq, AckStatus::kReplay);
  }
  const WrappedKey wrapped{get_u64(frame, 8), get_u64(frame, 16)};
  if (!chip_->install_wrapped_key(slot, wrapped)) {
    return encode_ack(seq, AckStatus::kBadKey);
  }
  installed_seq_[slot] = seq;
  return encode_ack(seq, AckStatus::kOk);
}

// ------------------------------------------------------------ session --

RemoteActivationSession::RemoteActivationSession(
    RemoteActivationChipEndpoint& endpoint, fault::LossyChannel& channel,
    Options options, std::uint64_t session_seed)
    : endpoint_(&endpoint),
      channel_(&channel),
      options_(options),
      jitter_rng_(sim::Rng(session_seed).fork("activation-jitter")) {}

RemoteActivationSession::Result RemoteActivationSession::activate(
    std::size_t slot, const Key64& config_key,
    const RsaPublicKey& chip_pub) {
  ANALOCK_SPAN("session.activate");
  Result result;
  const std::uint64_t session_start = channel_->now();
  const WrappedKey wrapped = wrap_key(config_key, chip_pub);
  // Retransmits reuse this sequence number so the endpoint can dedupe.
  const std::uint32_t seq = next_seq_++;
  const auto frame =
      encode_request(seq, static_cast<std::uint32_t>(slot), wrapped);

  for (unsigned attempt = 1; attempt <= options_.max_attempts; ++attempt) {
    ++result.attempts;
    const std::uint64_t sent_at = channel_->now();
    fault::Delivery request = channel_->transmit(frame);
    bool acked_ok = false;
    if (request.delivered) {
      const auto ack_frame = endpoint_->handle_frame(request.payload);
      if (!ack_frame.empty()) {
        // The chip answers when the request actually arrives; a delayed
        // request delays the ack with it.
        if (request.deliver_tick > channel_->now()) {
          channel_->wait(request.deliver_tick - channel_->now());
        }
        const fault::Delivery ack = channel_->transmit(ack_frame);
        if (ack.delivered &&
            ack.deliver_tick <= sent_at + kAckTimeoutTicks) {
          const auto decoded = decode_ack(ack.payload);
          if (!decoded.has_value() || decoded->seq != seq) {
            ++result.bad_acks;
          } else {
            result.last_status = decoded->status;
            switch (decoded->status) {
              case AckStatus::kOk:
                acked_ok = true;
                break;
              case AckStatus::kBadCrc:
                ++result.nacks;  // channel damage: retry
                break;
              case AckStatus::kBadKey:
              case AckStatus::kReplay:
              case AckStatus::kBadSlot:
                // Protocol-fatal verdicts: retrying cannot help.
                result.elapsed_ticks = channel_->now() - session_start;
                obs::event("session.aborted",
                           {{"status", to_string(decoded->status)},
                            {"attempts", result.attempts}});
                return result;
            }
          }
        } else if (ack.delivered) {
          ++result.timeouts;  // ack too late; sender already gave up
        } else {
          ++result.timeouts;  // ack lost outright
        }
      } else {
        ++result.timeouts;  // frame mangled beyond answering
      }
    } else {
      ++result.timeouts;  // request lost
    }

    if (acked_ok) {
      result.success = true;
      result.elapsed_ticks = channel_->now() - session_start;
      obs::count("recover.activation_success");
      obs::event("session.activated",
                 {{"slot", static_cast<std::uint64_t>(slot)},
                  {"attempts", result.attempts},
                  {"elapsed_ticks", result.elapsed_ticks}});
      return result;
    }
    if (attempt < options_.max_attempts) {
      // Bounded exponential backoff with jitter before the retransmit.
      const std::uint64_t backoff = std::min(
          std::uint64_t{1} << std::min(attempt - 1, 63u), kBackoffMaxTicks);
      const double jitter =
          1.0 + kJitterFrac * jitter_rng_.uniform(-1.0, 1.0);
      const auto wait = std::max<std::uint64_t>(
          1, static_cast<std::uint64_t>(
                 static_cast<double>(backoff) * jitter + 0.5));
      channel_->wait(wait);
      obs::count("recover.backoff_retry");
      obs::event("recover.backoff",
                 {{"attempt", attempt}, {"wait_ticks", wait}});
    }
  }
  result.elapsed_ticks = channel_->now() - session_start;
  obs::event("session.exhausted", {{"slot", static_cast<std::uint64_t>(slot)},
                                   {"attempts", result.attempts}});
  return result;
}

}  // namespace analock::lock
