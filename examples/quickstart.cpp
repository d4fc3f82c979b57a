// Quickstart: the complete locking lifecycle on one chip.
//
//   fabricate -> calibrate (14-step secret procedure) -> provision the
//   key manager -> power on in the field -> verify performance ->
//   demonstrate that a wrong key breaks the receiver.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "calib/calibrator.h"
#include "lock/evaluator.h"
#include "lock/key_manager.h"
#include "lock/locked_receiver.h"
#include "rf/standards.h"
#include "sim/process.h"
#include "sim/rng.h"

using namespace analock;

int main() {
  const rf::Standard& mode = rf::standard_max_3ghz();
  std::printf("=== analock quickstart: %s (F0 = %.1f GHz, fs = %.1f GHz) "
              "===\n\n",
              std::string(mode.name).c_str(), mode.f0_hz / 1e9,
              mode.fs_hz() / 1e9);

  // 1. Fabricate a chip: a unique process corner drawn from the fab.
  sim::Rng fab(12345);
  const auto process = sim::ProcessVariation::monte_carlo(fab, /*chip_id=*/7);
  const sim::Rng chip_rng = fab.fork("chip", 7);
  std::printf("[fab]   chip 7: tank C %+.1f%%, L %+.1f%%, Q0 = %.1f\n",
              100.0 * process.tank_c_rel, 100.0 * process.tank_l_rel,
              process.tank_q_intrinsic);

  // 2. Calibrate in the design house's secured environment. The returned
  //    64-bit configuration word IS the secret key.
  calib::Calibrator calibrator(mode, process, chip_rng);
  const auto cal = calibrator.run();
  std::printf("[cal]   %s | SNR %.1f dB, SFDR %.1f dB, tank error %.0f kHz, "
              "%zu ATE measurements\n",
              cal.success ? "calibrated" : "FAILED", cal.snr_receiver_db,
              cal.sfdr_db, cal.tank_freq_err_hz / 1e3,
              cal.total_measurements);
  // analock-verify: allow(taint-sink) demonstrators print the key as part of the narrative
  std::printf("[cal]   secret key: %s\n", cal.key.to_hex().c_str());

  // 3. Provision the tamper-proof LUT (Fig. 3a) and ship the chip.
  lock::TamperProofLutScheme lut(1);
  lut.provision(0, cal.key);

  // 4. In the field: power-on loads the configuration from the LUT.
  lock::LockedReceiver fielded(mode, process, chip_rng);
  if (!fielded.power_on(lut, 0)) {
    std::printf("[field] power-on failed!\n");
    return 1;
  }
  lock::LockEvaluator ev(mode, process, chip_rng);
  const auto report = ev.evaluate(*fielded.active_key());
  std::printf("[field] power-on OK: SNR(mod) %.1f dB, SNR(rx) %.1f dB, "
              "SFDR %.1f dB -> %s\n",
              report.snr_modulator_db, report.snr_receiver_db,
              report.sfdr_db, report.unlocked() ? "UNLOCKED" : "locked");

  // 5. A pirate with the netlist but no key guesses configurations.
  sim::Rng pirate(999);
  const auto guess = lock::Key64::random(pirate);
  const auto pirated = ev.evaluate(guess);
  // analock-verify: allow(taint-sink) demonstrators print the key as part of the narrative
  std::printf("[pirate] random key %s: SNR(rx) %.1f dB, SFDR %.1f dB -> "
              "%s\n",
              guess.to_hex().c_str(), pirated.snr_receiver_db,
              pirated.sfdr_db, pirated.unlocked() ? "UNLOCKED" : "locked");

  // 6. Even one wrong capacitor bit costs real margin; a wrong mode bit
  //    is fatal.
  const auto near_miss =
      cal.key.with_field(lock::KeyLayout::kCapCoarse,
                         cal.config.modulator.cap_coarse + 8);
  // analock-verify: allow(taint-sink) demonstrators print the key as part of the narrative
  std::printf("[pirate] near-miss key (+8 coarse codes): SNR(rx) %.1f dB "
              "-> %s\n",
              ev.snr_receiver_db(near_miss),
              ev.evaluate(near_miss).unlocked() ? "UNLOCKED" : "locked");
  return 0;
}
