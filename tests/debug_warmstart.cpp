// Scratch diagnostic: warm-start attack from donor chip 0 onto victim 1.
#include <cstdio>

#include "attack/warm_start.h"
#include "calib/calibrator.h"
#include "lock/evaluator.h"
#include "lock/key_layout.h"
#include "rf/standards.h"
#include "sim/process.h"
#include "sim/rng.h"

using namespace analock;
using L = lock::KeyLayout;

int main() {
  const rf::Standard& mode = rf::standard_max_3ghz();
  sim::Rng master(20260704);
  auto pv0 = sim::ProcessVariation::monte_carlo(master, 0);
  auto pv1 = sim::ProcessVariation::monte_carlo(master, 1);
  calib::Calibrator c0(mode, pv0, master.fork("chip", 0));
  calib::Calibrator c1(mode, pv1, master.fork("chip", 1));
  const auto cal0 = c0.run();
  const auto cal1 = c1.run();
  auto dump = [&](const char* name, const lock::Key64& k) {
    const auto c = lock::decode_key(k);
    std::printf("%s: caps=(%u,%u) q=%u gm=%u dac=%u pre=%u cmp=%u dly=%u vg=%u\n",
                name, c.modulator.cap_coarse, c.modulator.cap_fine,
                c.modulator.q_enh, c.modulator.gmin_bias,
                c.modulator.dac_bias, c.modulator.preamp_bias,
                c.modulator.comp_bias, c.modulator.loop_delay, c.vglna_gain);
  };
  dump("donor (chip0)", cal0.key);
  dump("victim(chip1)", cal1.key);

  lock::LockEvaluator ev(mode, pv1, master.fork("chip", 1));
  // analock-verify: allow(taint-sink) throwaway diagnostics dump internal state
  std::printf("victim own key : rx=%.1f sfdr=%.1f\n",
              ev.snr_receiver_db(cal1.key), ev.sfdr_db(cal1.key));
  // analock-verify: allow(taint-sink) throwaway diagnostics dump internal state
  std::printf("donor key as-is: mod=%.1f rx=%.1f\n",
              ev.snr_modulator_db(cal0.key), ev.snr_receiver_db(cal0.key));

  attack::WarmStartAttack ws(ev, sim::Rng(3000));
  attack::WarmStartOptions options;
  options.max_trials = 1200;
  const auto r = ws.run(cal0.key, options);
  dump("refined", r.best_key);
  std::printf("warm start: start=%.1f refined=%.1f rx=%.1f sfdr=%.1f "
              "success=%d trials=%llu moved=%u\n",
              r.start_snr_db, r.best_screen_snr_db, r.receiver_snr_db,
              r.sfdr_db, r.success, (unsigned long long)r.trials,
              r.hamming_moved);
  return 0;
}
