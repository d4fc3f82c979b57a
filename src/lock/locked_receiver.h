// Product-level facade: a fabricated chip (standard, process corner and
// noise RNG) whose programmable fabric is the lock. In the field the chip
// loads its configuration from a key-management scheme at power-on; an
// attacker can instead apply arbitrary key guesses directly. The fabric's
// state is the decoded configuration; rf::ReceiverBatch built from the
// chip's standard, process and RNG measures it.
#pragma once

#include <cstdint>
#include <optional>

#include "lock/key64.h"
#include "lock/key_layout.h"
#include "lock/key_manager.h"
#include "rf/receiver.h"
#include "rf/standards.h"
#include "sim/process.h"
#include "sim/rng.h"

namespace analock::lock {

class LockedReceiver {
 public:
  /// A chip instance for `standard` at process corner `process`.
  LockedReceiver(const rf::Standard& standard,
                 const sim::ProcessVariation& process, const sim::Rng& rng);

  /// Normal power-on: loads the slot's configuration from the key
  /// manager and applies it to the fabric. Returns false (and leaves the
  /// fabric in the all-zero, non-functional state) if the slot is empty.
  bool power_on(KeyManagementScheme& scheme, std::size_t slot);

  /// Attacker / tester path: applies raw programming bits.
  void apply_key(const Key64& key);

  /// The key currently programmed into the fabric, if any.
  [[nodiscard]] std::optional<Key64> active_key() const {
    return active_key_;
  }

  /// The configuration programmed into the fabric.
  [[nodiscard]] const rf::ReceiverConfig& config() const { return config_; }
  [[nodiscard]] const rf::Standard& standard() const { return *standard_; }
  [[nodiscard]] const sim::ProcessVariation& process() const {
    return process_;
  }
  [[nodiscard]] const sim::Rng& rng() const { return rng_; }

 private:
  const rf::Standard* standard_;
  sim::ProcessVariation process_;
  sim::Rng rng_;
  rf::ReceiverConfig config_;
  std::optional<Key64> active_key_;
};

}  // namespace analock::lock
