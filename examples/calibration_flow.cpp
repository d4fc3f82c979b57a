// The 14-step calibration procedure in slow motion (paper Section V.B).
//
// Walks a fresh chip through the oscillation-mode tank tuning, the -Gm
// backoff and the iterative bias optimization, narrating what the ATE
// sees at each step — this procedure, together with the key it produces,
// is the secret the locking scheme protects.
//
// Build & run:  ./build/examples/calibration_flow
#include <cstdio>

#include "calib/bias_optimizer.h"
#include "calib/calibrator.h"
#include "calib/oscillation_tuner.h"
#include "lock/evaluator.h"
#include "lock/key_layout.h"
#include "rf/receiver.h"
#include "rf/receiver_batch.h"
#include "rf/standards.h"
#include "sim/process.h"
#include "sim/rng.h"

using namespace analock;

int main() {
  const rf::Standard& mode = rf::standard_max_3ghz();
  sim::Rng fab(2718);
  const auto process = sim::ProcessVariation::monte_carlo(fab, 11);
  const sim::Rng chip_rng = fab.fork("chip", 11);

  std::printf("=== 14-step calibration walk-through, F0 = %.1f GHz ===\n\n",
              mode.f0_hz / 1e9);
  std::printf("chip corner: tank C %+.1f%%, L %+.1f%%, Q0 %.1f, parasitic "
              "loop delay %.2f samples\n\n",
              100.0 * process.tank_c_rel, 100.0 * process.tank_l_rel,
              process.tank_q_intrinsic, process.loop_delay_parasitic);

  rf::ReceiverBatch dut(mode, process, chip_rng.fork("calibration-dut"));

  std::printf("steps 1-5: comparator -> buffer, output buffer -> pad, Gmin "
              "off, loop off, -Gm max (oscillation mode)\n");

  // Step 6: watch the frequency counter converge.
  calib::OscillationTuner osc(dut);
  std::printf("step 6: capacitor search (frequency counter readings)\n");
  for (std::uint32_t coarse : {0u, 32u, 64u, 16u, 8u}) {
    const auto m = osc.measure(coarse, 128);
    std::printf("   probe Cc=%3u Cf=128 -> %.4f GHz (rms %.2f)\n", coarse,
                m.freq_hz / 1e9, m.rms);
  }
  const auto tank = osc.tune(mode.f0_hz);
  std::printf("   converged: Cc=%u Cf=%u -> %.5f GHz (target %.5f) after "
              "%zu measurements\n",
              tank.cap_coarse, tank.cap_fine, tank.achieved_hz / 1e9,
              mode.f0_hz / 1e9, osc.readings());

  // Step 7: -Gm backoff on the same tuner and chip.
  const auto q_result = osc.back_off(tank.cap_coarse, tank.cap_fine);
  std::printf("step 7: -Gm reduced %u -> %u; oscillation vanished below "
              "code %u\n",
              rf::LcTank::kQEnhMax, q_result.q_enh, q_result.q_threshold);

  std::printf("steps 8-10: loop restored, RF input applied, Fs = 4 F0\n");

  // Steps 11-14 via the full calibrator (loop delay + biases + VGLNA).
  calib::Calibrator calibrator(mode, process, chip_rng);
  const auto cal = calibrator.run();
  std::printf("steps 11-14: loop delay = %u, biases (Gmin/DAC/pre/comp) = "
              "%u/%u/%u/%u, VGLNA per segment = %u/%u/%u\n",
              cal.config.modulator.loop_delay, cal.config.modulator.gmin_bias,
              cal.config.modulator.dac_bias, cal.config.modulator.preamp_bias,
              cal.config.modulator.comp_bias, cal.vglna_per_segment[0],
              cal.vglna_per_segment[1], cal.vglna_per_segment[2]);

  std::printf("\nresult: %s | SNR(mod) %.1f dB, SNR(rx) %.1f dB, SFDR %.1f "
              "dB | %zu measurements total\n",
              cal.success ? "PASS" : "FAIL", cal.snr_modulator_db,
              cal.snr_receiver_db, cal.sfdr_db, cal.total_measurements);
  // analock-verify: allow(taint-sink) demonstrators print the key as part of the narrative
  std::printf("secret key: %s\n\n", cal.key.to_hex().c_str());

  std::printf("why an attacker cannot retrace this (paper VI.B.2):\n"
              "  (a) the chip must be reconfigured multiple times in a "
              "specific sequence;\n"
              "  (b) initial bias words come from design-time simulation "
              "the attacker lacks;\n"
              "  (c) the block calibration order matters;\n"
              "  (d) the feedback loop prevents per-block calibration.\n");
  return 0;
}
