#include "lock/locked_receiver.h"

namespace analock::lock {

LockedReceiver::LockedReceiver(const rf::Standard& standard,
                               const sim::ProcessVariation& process,
                               const sim::Rng& rng)
    : standard_(&standard),
      process_(process),
      rng_(rng),
      // Un-keyed fabric: all programming bits low. The loop is open, the
      // comparator un-clocked, the input disconnected — non-functional.
      config_(decode_key(Key64{}, standard.digital_mode)) {}

bool LockedReceiver::power_on(KeyManagementScheme& scheme, std::size_t slot) {
  const auto key = scheme.load(slot);
  if (!key) {
    apply_key(Key64{});
    active_key_.reset();
    return false;
  }
  apply_key(*key);
  return true;
}

void LockedReceiver::apply_key(const Key64& key) {
  config_ = decode_key(key, standard_->digital_mode);
  active_key_ = key;
}

}  // namespace analock::lock
