// Scratch diagnostic: receiver SNR vs tank detune, and the open-loop
// clocked-comparator key class.
#include <cstdio>

#include "calib/calibrator.h"
#include "lock/evaluator.h"
#include "lock/key_layout.h"
#include "rf/standards.h"
#include "sim/process.h"
#include "sim/rng.h"

using namespace analock;
using lock::Key64;
using L = lock::KeyLayout;

int main() {
  sim::Rng master(2027);
  const auto pv = sim::ProcessVariation::monte_carlo(master, 0);
  calib::Calibrator calibrator(rf::standard_max_3ghz(), pv,
                               master.fork("chip", 0));
  const auto cal = calibrator.run();
  lock::LockEvaluator ev(rf::standard_max_3ghz(), pv, master.fork("chip", 0));
  // analock-verify: allow(taint-sink) throwaway diagnostics dump internal state
  std::printf("correct: mod=%.1f rx=%.1f sfdr=%.1f\n",
              ev.snr_modulator_db(cal.key), ev.snr_receiver_db(cal.key),
              ev.sfdr_db(cal.key));

  // SNR vs coarse-cap detune (1 coarse LSB ~ 0.85% frequency shift).
  const auto coarse0 = cal.config.modulator.cap_coarse;
  for (int d : {-8, -4, -2, -1, 1, 2, 4, 8, 16}) {
    const auto c = static_cast<std::uint32_t>(static_cast<int>(coarse0) + d);
    const Key64 k = cal.key.with_field(L::kCapCoarse, c);
    // analock-verify: allow(taint-sink) throwaway diagnostics dump internal state
    std::printf("  coarse %+3d: mod=%6.1f rx=%6.1f sfdr=%6.1f\n", d,
                ev.snr_modulator_db(k), ev.snr_receiver_db(k), ev.sfdr_db(k));
  }

  // Open loop, comparator clocked (tank tuned): the high-Q filter +
  // slicer class.
  const Key64 open_clk = cal.key.with_bit(L::kFeedbackEnable, false);
  // analock-verify: allow(taint-sink) throwaway diagnostics dump internal state
  std::printf("fb=0 clk=1: mod=%.1f rx=%.1f sfdr=%.1f\n",
              ev.snr_modulator_db(open_clk), ev.snr_receiver_db(open_clk),
              ev.sfdr_db(open_clk));
  const Key64 open_unclk = open_clk.with_bit(L::kCompClockEnable, false);
  // analock-verify: allow(taint-sink) throwaway diagnostics dump internal state
  std::printf("fb=0 clk=0: mod=%.1f rx=%.1f sfdr=%.1f\n",
              ev.snr_modulator_db(open_unclk), ev.snr_receiver_db(open_unclk),
              ev.sfdr_db(open_unclk));
  // Cross-chip: same key on a +8% tank chip.
  sim::ProcessVariation other = pv;
  other.tank_c_rel += 0.08;
  lock::LockEvaluator ev2(rf::standard_max_3ghz(), other,
                          master.fork("other"));
  // analock-verify: allow(taint-sink) throwaway diagnostics dump internal state
  std::printf("cross-chip(+8%% C): mod=%.1f rx=%.1f sfdr=%.1f\n",
              ev2.snr_modulator_db(cal.key), ev2.snr_receiver_db(cal.key),
              ev2.sfdr_db(cal.key));
  return 0;
}
