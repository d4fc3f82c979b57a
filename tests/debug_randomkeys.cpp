// Scratch diagnostic: which random-key classes score high SNR?
#include <cstdio>

#include "calib/calibrator.h"
#include "lock/evaluator.h"
#include "lock/key_layout.h"
#include "rf/standards.h"
#include "sim/process.h"
#include "sim/rng.h"

using namespace analock;
using lock::Key64;

int main() {
  sim::Rng master(2027);
  const auto pv = sim::ProcessVariation::monte_carlo(master, 0);
  calib::Calibrator calibrator(rf::standard_max_3ghz(), pv,
                               master.fork("chip", 0));
  const auto cal = calibrator.run();
  lock::LockEvaluator ev(rf::standard_max_3ghz(), pv, master.fork("chip", 0));
  // analock-verify: allow(taint-sink) throwaway diagnostics dump internal state
  std::printf("correct: mod=%.1f rx=%.1f sfdr=%.1f  caps=(%u,%u) q=%u\n",
              ev.snr_modulator_db(cal.key), ev.snr_receiver_db(cal.key),
              ev.sfdr_db(cal.key), cal.config.modulator.cap_coarse,
              cal.config.modulator.cap_fine, cal.config.modulator.q_enh);
  sim::Rng rng(99);
  for (int i = 0; i < 20; ++i) {
    const Key64 k = Key64::random(rng);
    const double mod = ev.snr_modulator_db(k);
    if (mod < 10.0) continue;
    const double rx = ev.snr_receiver_db(k);
    const auto cfg = lock::decode_key(k);
    std::printf(
        "key %2d: mod=%5.1f rx=%5.1f | fb=%d clk=%d gmin=%d buf=%d mux=%u "
        "caps=(%u,%u) q=%u gm=%u dac=%u pre=%u cmp=%u dly=%u vg=%u\n",
        i, mod, rx, cfg.modulator.feedback_enable,
        cfg.modulator.comp_clock_enable, cfg.modulator.gmin_enable,
        cfg.modulator.buffer_in_path, cfg.modulator.test_mux,
        cfg.modulator.cap_coarse, cfg.modulator.cap_fine, cfg.modulator.q_enh,
        cfg.modulator.gmin_bias, cfg.modulator.dac_bias,
        cfg.modulator.preamp_bias, cfg.modulator.comp_bias,
        cfg.modulator.loop_delay, cfg.vglna_gain);
  }
  return 0;
}
