// Runtime engine of a fault campaign.
//
// A FaultInjector executes a FaultPlan: consumers hand it their clean
// values (oracle readings, fabric words, PUF responses) and receive the
// possibly-faulted version back. Each fault class draws from its own RNG
// stream forked from (plan.seed, plan.campaign_id), so the campaign is
// reproducible and adding a fault class never perturbs another class's
// sequence. A default-constructed injector is inactive and every hook is
// an identity function, which keeps the zero-fault path behavior-
// preserving with the fault layer compiled in.
//
// Every injected fault increments an obs `fault.*` counter and the
// injector's own Counts record (so benches can report per-campaign fault
// tallies even when the obs registry is disabled).
#pragma once

#include <cstdint>
#include <string_view>

#include "fault/fault_plan.h"
#include "sim/rng.h"

namespace analock::fault {

class FaultInjector {
 public:
  /// Tally of faults actually injected so far.
  struct Counts {
    std::uint64_t meas_spikes = 0;
    std::uint64_t meas_dropouts = 0;
    std::uint64_t words_stuck = 0;   ///< words altered by stuck bits
    std::uint64_t puf_flips = 0;
    std::uint64_t msgs_lost = 0;
    std::uint64_t msgs_corrupted = 0;
    std::uint64_t msgs_delayed = 0;
    [[nodiscard]] std::uint64_t total() const {
      return meas_spikes + meas_dropouts + words_stuck + puf_flips +
             msgs_lost + msgs_corrupted + msgs_delayed;
    }
  };

  /// Inactive injector: every hook is the identity.
  FaultInjector() = default;
  explicit FaultInjector(FaultPlan plan);

  [[nodiscard]] const FaultPlan& plan() const { return plan_; }
  [[nodiscard]] bool active() const { return plan_.active(); }
  [[nodiscard]] const Counts& counts() const { return counts_; }

  /// Oracle reading in dB: may pick up a spike or become a dropout.
  /// `site` names the consuming measurement (e.g. "eval.snr_receiver")
  /// and is recorded on the fault event.
  double perturb_measurement(std::string_view site, double clean_db);

  /// Applies the stuck-at masks to a fabric word, counting a word the
  /// masks alter.
  [[nodiscard]] std::uint64_t perturb_word(std::uint64_t bits);
  /// The same masks without the count: what perturb_word(bits) returns.
  [[nodiscard]] std::uint64_t stuck_word(std::uint64_t bits) const {
    return (bits & ~stuck0_) | stuck1_;
  }
  [[nodiscard]] std::uint64_t stuck_at0_mask() const { return stuck0_; }
  [[nodiscard]] std::uint64_t stuck_at1_mask() const { return stuck1_; }

  /// One raw PUF response: flipped with plan.puf_flip_prob.
  bool perturb_puf_response(bool clean);

  // -- Channel draws (used by LossyChannel) -------------------------------
  bool draw_msg_loss();
  /// Returns the bit index to flip, or a negative value for no corruption.
  /// `payload_bits` is the message length in bits (must be > 0).
  std::int32_t draw_msg_corruption(std::size_t payload_bits);
  /// Extra delivery delay in ticks (0 = on time).
  std::uint32_t draw_msg_delay();

 private:
  FaultPlan plan_;
  std::uint64_t stuck0_ = 0;  ///< bits forced to 0
  std::uint64_t stuck1_ = 0;  ///< bits forced to 1
  sim::Rng meas_rng_;
  sim::Rng flip_rng_;
  sim::Rng channel_rng_;
  Counts counts_;
};

}  // namespace analock::fault
