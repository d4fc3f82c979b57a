// Scratch diagnostic: run the 14-step calibration on a few Monte-Carlo
// chips and print the outcome. Not part of the test suite.
//
// Honors the ANALOCK_FAULT_* environment knobs (see the README "Fault
// injection & failure handling" section): set e.g.
//   ANALOCK_FAULT_MEAS_DROPOUT=0.3 ANALOCK_FAULT_HARDEN=1 debug_calibration
// to run a faulted campaign with the hardened calibrator.
#include <cstdio>

#include "calib/calibrator.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "rf/standards.h"
#include "sim/process.h"
#include "sim/rng.h"

using namespace analock;

int main(int argc, char** argv) {
  const int chips = argc > 1 ? std::atoi(argv[1]) : 3;
  const rf::Standard& mode = rf::standard_max_3ghz();
  sim::Rng master(2026);
  const fault::FaultPlan plan = fault::FaultPlan::from_env();
  if (plan.active()) {
    std::printf("fault campaign: %s\n", plan.summary().c_str());
  }
  calib::Calibrator::Options options;
  options.hardening = calib::Calibrator::Hardening::from_env();
  for (int c = 0; c < chips; ++c) {
    const auto pv =
        sim::ProcessVariation::monte_carlo(master, static_cast<std::uint64_t>(c));
    calib::Calibrator calibrator(mode, pv, master.fork("chip", (std::uint64_t)c),
                                 options);
    fault::FaultInjector injector(plan);
    if (plan.active()) calibrator.set_fault_injector(&injector);
    const auto r = calibrator.run();
    // analock-verify: allow(taint-sink) throwaway diagnostics dump internal state
    std::printf(
        "chip %d: success=%d failure=%s key=%s snr_mod=%.1f snr_rx=%.1f "
        "sfdr=%.1f ferr=%.2fMHz meas=%zu retries=%u faults=%llu\n",
        c, r.success, calib::to_string(r.failure), r.key.to_hex().c_str(),
        r.snr_modulator_db, r.snr_receiver_db, r.sfdr_db,
        r.tank_freq_err_hz / 1e6, r.total_measurements, r.total_retries,
        static_cast<unsigned long long>(r.faults_injected));
    std::printf(
        "   caps=(%u,%u) q=%u delay=%u biases=(%u,%u,%u,%u) vglna=(%u,%u,%u)\n",
        r.config.modulator.cap_coarse, r.config.modulator.cap_fine,
        r.config.modulator.q_enh, r.config.modulator.loop_delay,
        r.config.modulator.gmin_bias, r.config.modulator.dac_bias,
        r.config.modulator.preamp_bias, r.config.modulator.comp_bias,
        r.vglna_per_segment[0], r.vglna_per_segment[1],
        r.vglna_per_segment[2]);
  }
  return 0;
}
