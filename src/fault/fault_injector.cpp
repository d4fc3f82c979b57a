#include "fault/fault_injector.h"

#include <string>

#include "obs/trace.h"

namespace analock::fault {

namespace {

/// Draws `count` distinct bit positions into a mask, avoiding `taken`.
std::uint64_t draw_mask(sim::Rng& rng, unsigned count, std::uint64_t taken) {
  std::uint64_t mask = 0;
  unsigned placed = 0;
  while (placed < count && placed < 64) {
    const std::uint64_t bit = 1ull << rng.uniform_below(64);
    if ((mask | taken) & bit) continue;
    mask |= bit;
    ++placed;
  }
  return mask;
}

}  // namespace

FaultInjector::FaultInjector(FaultPlan plan)
    : plan_(std::move(plan)),
      meas_rng_(sim::Rng(plan_.seed)
                    .fork(plan_.campaign_id)
                    .fork("fault-measurement")),
      flip_rng_(sim::Rng(plan_.seed).fork(plan_.campaign_id).fork("fault-puf")),
      channel_rng_(
          sim::Rng(plan_.seed).fork(plan_.campaign_id).fork("fault-channel")) {
  sim::Rng stuck_rng =
      sim::Rng(plan_.seed).fork(plan_.campaign_id).fork("fault-stuck");
  stuck0_ = draw_mask(stuck_rng, plan_.stuck_at0_bits, 0);
  stuck1_ = draw_mask(stuck_rng, plan_.stuck_at1_bits, stuck0_);
}

double FaultInjector::perturb_measurement(std::string_view site,
                                          double clean_db) {
  if (plan_.meas_dropout_prob <= 0.0 && plan_.meas_spike_prob <= 0.0) {
    return clean_db;
  }
  // Both classes draw every call so the stream stays aligned regardless
  // of which faults fire.
  const bool dropout = meas_rng_.bernoulli(plan_.meas_dropout_prob);
  const bool spike = meas_rng_.bernoulli(plan_.meas_spike_prob);
  const double spike_db = meas_rng_.gaussian(0.0, plan_.meas_spike_sigma_db);
  if (dropout) {
    ++counts_.meas_dropouts;
    obs::count("fault.meas_dropout");
    obs::event("fault.injected", {{"class", "meas_dropout"},
                                  {"site", std::string(site)},
                                  {"clean_db", clean_db}});
    return plan_.meas_dropout_value_db;
  }
  if (spike) {
    ++counts_.meas_spikes;
    obs::count("fault.meas_spike");
    obs::event("fault.injected", {{"class", "meas_spike"},
                                  {"site", std::string(site)},
                                  {"clean_db", clean_db},
                                  {"spike_db", spike_db}});
    return clean_db + spike_db;
  }
  return clean_db;
}

std::uint64_t FaultInjector::perturb_word(std::uint64_t bits) {
  if (stuck0_ == 0 && stuck1_ == 0) return bits;
  const std::uint64_t faulted = stuck_word(bits);
  // analock: declassified(campaign telemetry: whether a stuck register bit changed the word, not the word's value)
  if (faulted != bits) {
    ++counts_.words_stuck;
    obs::count("fault.word_stuck");
  }
  return faulted;
}

bool FaultInjector::perturb_puf_response(bool clean) {
  if (plan_.puf_flip_prob <= 0.0) return clean;
  if (!flip_rng_.bernoulli(plan_.puf_flip_prob)) return clean;
  ++counts_.puf_flips;
  obs::count("fault.puf_flip");
  return !clean;
}

bool FaultInjector::draw_msg_loss() {
  if (plan_.msg_loss_prob <= 0.0) return false;
  if (!channel_rng_.bernoulli(plan_.msg_loss_prob)) return false;
  ++counts_.msgs_lost;
  obs::count("fault.msg_lost");
  return true;
}

std::int32_t FaultInjector::draw_msg_corruption(std::size_t payload_bits) {
  if (plan_.msg_corrupt_prob <= 0.0 || payload_bits == 0) return -1;
  if (!channel_rng_.bernoulli(plan_.msg_corrupt_prob)) return -1;
  ++counts_.msgs_corrupted;
  obs::count("fault.msg_corrupted");
  return static_cast<std::int32_t>(channel_rng_.uniform_below(payload_bits));
}

std::uint32_t FaultInjector::draw_msg_delay() {
  if (plan_.msg_delay_prob <= 0.0 || plan_.msg_delay_max_ticks == 0) return 0;
  if (!channel_rng_.bernoulli(plan_.msg_delay_prob)) return 0;
  ++counts_.msgs_delayed;
  obs::count("fault.msg_delayed");
  return 1 + static_cast<std::uint32_t>(
                 channel_rng_.uniform_below(plan_.msg_delay_max_ticks));
}

}  // namespace analock::fault
