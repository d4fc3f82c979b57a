// Multi-standard operation: one chip, one LUT line per standard
// (paper Fig. 3a / Section III objective (c)).
//
// Calibrates the same die for Bluetooth, ZigBee and WiFi 802.11b, stores
// the three configuration settings in the tamper-proof LUT, then switches
// operation modes at runtime the way the fielded chip would.
//
// Build & run:  ./build/examples/multi_standard_rx
#include <cstdio>
#include <vector>

#include "calib/calibrator.h"
#include "lock/evaluator.h"
#include "lock/key_manager.h"
#include "lock/locked_receiver.h"
#include "rf/standards.h"
#include "sim/process.h"
#include "sim/rng.h"

using namespace analock;

int main() {
  const std::vector<const rf::Standard*> modes = {
      &rf::standard_bluetooth(), &rf::standard_zigbee(),
      &rf::standard_wifi_80211b()};

  sim::Rng fab(777);
  const auto process = sim::ProcessVariation::monte_carlo(fab, 3);
  const sim::Rng chip_rng = fab.fork("chip", 3);

  std::printf("=== multi-standard receiver: one die, %zu operation modes "
              "===\n\n", modes.size());

  // Calibration pass: one configuration setting per standard. Note how
  // the keys differ across standards on the SAME chip — each mode needs
  // its own tank tuning and biases.
  lock::TamperProofLutScheme lut(modes.size());
  std::printf("%-24s %10s %8s %8s %8s %22s\n", "standard", "F0[GHz]",
              "SNR[dB]", "SFDR[dB]", "caps", "configuration key");
  for (std::size_t slot = 0; slot < modes.size(); ++slot) {
    calib::Calibrator calibrator(*modes[slot], process, chip_rng);
    const auto cal = calibrator.run();
    lut.provision(slot, cal.key);
    // analock-verify: allow(taint-sink) demonstrators print the key as part of the narrative
    std::printf("%-24s %10.3f %8.1f %8.1f %4u,%-3u %22s\n",
                std::string(modes[slot]->name).c_str(),
                modes[slot]->f0_hz / 1e9, cal.snr_receiver_db, cal.sfdr_db,
                cal.config.modulator.cap_coarse,
                cal.config.modulator.cap_fine, cal.key.to_hex().c_str());
  }

  // Field operation: the chip commands the LUT to load the programming
  // bits for the selected mode (paper: "in normal operation mode the
  // circuit commands dynamically the memories to load the corresponding
  // programming bits").
  std::printf("\nruntime mode switching:\n");
  for (std::size_t slot = 0; slot < modes.size(); ++slot) {
    lock::LockedReceiver chip(*modes[slot], process, chip_rng);
    if (!chip.power_on(lut, slot)) {
      std::printf("  %-24s load FAILED\n",
                  std::string(modes[slot]->name).c_str());
      continue;
    }
    lock::LockEvaluator ev(*modes[slot], process, chip_rng);
    // analock-verify: allow(taint-sink) demonstrators print the key as part of the narrative
    std::printf("  %-24s loaded slot %zu -> receiver SNR %.1f dB\n",
                std::string(modes[slot]->name).c_str(), slot,
                ev.snr_receiver_db(*chip.active_key()));
  }

  // Cross-mode key confusion: a configuration is specific to its clock
  // plan. Nearby standards (Bluetooth vs WiFi, 0.1% apart in F0) share
  // tank tuning, but a distant mode breaks hard.
  const auto bt_key = lut.load(0);
  lock::LockEvaluator wifi_ev(*modes[2], process, chip_rng);
  const double wifi_snr = wifi_ev.snr_receiver_db(*bt_key);
  lock::LockEvaluator max_ev(rf::standard_max_3ghz(), process, chip_rng);
  const double max_snr = max_ev.snr_receiver_db(*bt_key);
  std::printf("\ncross-mode check with the Bluetooth key:\n");
  std::printf("  on WiFi 802.11b (0.1%% away in F0): rx SNR %.1f dB -> %s\n",
              wifi_snr, wifi_snr >= 40.0 ? "still works (bands overlap)"
                                         : "locked");
  std::printf("  on max-3GHz (23%% away in F0)     : rx SNR %.1f dB -> %s\n",
              max_snr, max_snr >= 40.0 ? "works (?)" : "locked");
  return 0;
}
