// Fault-injection campaign description (pure data).
//
// A FaultPlan says *what* can go wrong and *how often*; it carries no
// state. Together with its (seed, campaign_id) pair it fully determines
// every fault a FaultInjector will ever produce, so a campaign is
// byte-for-byte reproducible: same plan -> same spikes, same stuck bits,
// same lost messages, in the same order. Callers build a plan in code
// (bench_fault_resilience sweeps one per table cell); no environment
// variable sets one.
//
// The modeled fault classes mirror what the paper's flow is exposed to
// in production:
//   * measurement  — ATE oracle readings suffer additive noise spikes
//                    and transient dropouts (a garbage reading);
//   * fabric       — the applied 64-bit configuration word has
//                    stuck-at-0 / stuck-at-1 register bits;
//   * PUF          — response bits flip across power-ons;
//   * channel      — the design-house <-> test-floor link loses,
//                    corrupts, or delays messages.
#pragma once

#include <cstdint>
#include <string>

namespace analock::fault {

struct FaultPlan {
  /// Master seed of the campaign; every injector stream forks from it.
  std::uint64_t seed = 0;
  /// Names the campaign; folded into the stream derivation so two
  /// campaigns with the same seed but different ids are independent.
  std::string campaign_id = "default";

  // -- Measurement (ATE oracle) faults ------------------------------------
  /// Probability that a reading picks up an additive gaussian spike.
  double meas_spike_prob = 0.0;
  /// Spike magnitude sigma, in dB of the reported metric.
  double meas_spike_sigma_db = 8.0;
  /// Probability that a reading is a transient dropout (garbage value).
  double meas_dropout_prob = 0.0;
  /// The garbage value a dropout reports (instrument floor).
  double meas_dropout_value_db = -200.0;

  // -- Fabric (configuration-register) faults -----------------------------
  /// Number of stuck-at-0 / stuck-at-1 bits in the applied key word.
  /// Positions are drawn deterministically from (seed, campaign_id).
  unsigned stuck_at0_bits = 0;
  unsigned stuck_at1_bits = 0;

  // -- PUF faults ---------------------------------------------------------
  /// Per-evaluation probability that a raw PUF response bit flips.
  double puf_flip_prob = 0.0;

  // -- Channel faults (remote activation link) ----------------------------
  /// Probability a message is silently dropped.
  double msg_loss_prob = 0.0;
  /// Probability a delivered message has one payload bit flipped.
  double msg_corrupt_prob = 0.0;
  /// Probability a delivered message is delayed by extra ticks.
  double msg_delay_prob = 0.0;
  /// Maximum extra delay, in channel ticks (uniform in [1, max]).
  std::uint32_t msg_delay_max_ticks = 8;

  /// True when any fault class has a nonzero rate — an inactive plan
  /// must leave every consumer bit-exact with the fault layer absent.
  [[nodiscard]] bool active() const;

  /// One-line human summary for bench tables and logs.
  [[nodiscard]] std::string summary() const;
};

}  // namespace analock::fault
