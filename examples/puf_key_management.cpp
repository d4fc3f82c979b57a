// PUF-based key management (paper Fig. 3b) and the counterfeiting
// defenses it enables: cloning, overproduction, recycling, remarking.
//
// Build & run:  ./build/examples/puf_key_management
#include <cstdio>

#include "calib/calibrator.h"
#include "lock/evaluator.h"
#include "lock/key_manager.h"
#include "lock/locked_receiver.h"
#include "lock/puf.h"
#include "lock/remote_activation.h"
#include "rf/standards.h"
#include "sim/process.h"
#include "sim/rng.h"

using namespace analock;

int main() {
  const rf::Standard& mode = rf::standard_max_3ghz();
  sim::Rng fab(606);

  std::printf("=== PUF + XOR key management (Fig. 3b) ===\n\n");

  // Genuine chip: calibrate and wrap the key with the die's own PUF.
  const auto pv = sim::ProcessVariation::monte_carlo(fab, 0);
  const sim::Rng chip_rng = fab.fork("chip", 0);
  calib::Calibrator calibrator(mode, pv, chip_rng);
  const auto cal = calibrator.run();

  lock::ArbiterPuf puf(chip_rng.fork("puf"));
  lock::PufXorScheme scheme(puf, 1);
  scheme.provision(0, cal.key);
  // analock-verify: allow(taint-sink) demonstrators print the key as part of the narrative
  std::printf("config key : %s (secret, never stored)\n",
              cal.key.to_hex().c_str());
  // analock-verify: allow(taint-sink) demonstrators print the key as part of the narrative
  std::printf("id key     : %s (PUF, exists only on this die)\n",
              puf.identification_key(0).to_hex().c_str());
  // analock-verify: allow(taint-sink) demonstrators print the key as part of the narrative
  std::printf("user key   : %s (shipped to the customer, safe to expose)\n",
              scheme.user_key(0)->to_hex().c_str());

  // Power-on: the chip regenerates the id key and unwraps.
  lock::LockedReceiver genuine(mode, pv, chip_rng);
  genuine.power_on(scheme, 0);
  lock::LockEvaluator ev(mode, pv, chip_rng);
  // analock-verify: allow(taint-sink) demonstrators print the key as part of the narrative
  std::printf("\n[genuine] power-on: rx SNR %.1f dB -> %s\n",
              ev.snr_receiver_db(*genuine.active_key()),
              ev.evaluate(*genuine.active_key()).unlocked() ? "UNLOCKED"
                                                            : "locked");

  // Cloning: the user key copied onto a different die.
  const auto clone_pv = sim::ProcessVariation::monte_carlo(fab, 1);
  const sim::Rng clone_rng = fab.fork("chip", 1);
  lock::ArbiterPuf clone_puf(clone_rng.fork("puf"));
  lock::PufXorScheme clone_scheme(clone_puf, 1);
  clone_scheme.install_user_key(0, *scheme.user_key(0));
  lock::LockedReceiver clone(mode, clone_pv, clone_rng);
  clone.power_on(clone_scheme, 0);
  lock::LockEvaluator clone_ev(mode, clone_pv, clone_rng);
  // analock-verify: allow(taint-sink) demonstrators print the key as part of the narrative
  std::printf("[clone]   stolen user key unwraps %u/64 bits wrong -> rx "
              "SNR %.1f dB -> locked\n",
              clone.active_key()->hamming_distance(cal.key),
              clone_ev.snr_receiver_db(*clone.active_key()));

  // Overproduction: extra dies leave the fab unprovisioned.
  lock::PufXorScheme empty(clone_puf, 1);
  lock::LockedReceiver gray(mode, clone_pv, clone_rng);
  std::printf("[overrun] unprovisioned die: power-on %s\n",
              gray.power_on(empty, 0) ? "loaded (?)" : "refused -> dead");

  // Recycling: user keys are re-loaded at every power-on, so a pulled
  // part without its key material will not run (paper Section IV.C).
  std::printf("[recycle] a desoldered part ships without the user key; "
              "without it the fabric stays in the all-zero state\n");

  // Remarking: the design house poisons failed parts.
  lock::TamperProofLutScheme lut(1);
  lut.provision(0, cal.key);
  sim::Rng poison(1);
  lut.poison(0, poison);
  lock::LockedReceiver remarked(mode, pv, chip_rng);
  remarked.power_on(lut, 0);
  // analock-verify: allow(taint-sink) demonstrators print the key as part of the narrative
  std::printf("[remark]  poisoned LUT entry: rx SNR %.1f dB -> totally "
              "malfunctional\n",
              ev.snr_receiver_db(*remarked.active_key()));

  // High-volume flow (paper IV.B.4): remote activation — the chip derives
  // an RSA pair from its PUF; the design house never exposes a plaintext
  // key to the untrusted test floor.
  std::printf("\n=== remote activation (EPIC-style, Sec. IV.B.4) ===\n");
  lock::RemoteActivationChip remote(puf, 1);
  const auto pub = remote.public_key();
  std::printf("chip publishes n=%llu e=%llu; design house wraps the key\n",
              (unsigned long long)pub.n, (unsigned long long)pub.e);
  const auto wrapped = lock::wrap_key(cal.key, pub);
  std::printf("ciphertext on the test floor: {%016llx, %016llx}\n",
              (unsigned long long)wrapped.c_lo,
              (unsigned long long)wrapped.c_hi);
  remote.install_wrapped_key(0, wrapped);
  lock::LockedReceiver activated(mode, pv, chip_rng);
  activated.power_on(remote, 0);
  // analock-verify: allow(taint-sink) demonstrators print the key as part of the narrative
  std::printf("chip decrypts internally and unlocks: rx SNR %.1f dB\n",
              ev.snr_receiver_db(*activated.active_key()));
  // The same ciphertext diverted to the clone die is rejected.
  lock::RemoteActivationChip clone_remote(clone_puf, 1);
  // analock-verify: allow(taint-sink) demonstrators print the key as part of the narrative
  std::printf("same ciphertext on a cloned die: install %s\n",
              clone_remote.install_wrapped_key(0, wrapped)
                  ? "accepted (?)"
                  : "REJECTED (framing check fails under the wrong key)");
  return 0;
}
