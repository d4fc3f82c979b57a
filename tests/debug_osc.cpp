// Scratch diagnostic for the oscillation-mode frequency counter.
#include <cstdio>

#include "calib/oscillation_tuner.h"
#include "rf/receiver_batch.h"
#include "rf/standards.h"
#include "sim/process.h"
#include "sim/rng.h"

using namespace analock;

int main() {
  const rf::Standard& mode = rf::standard_max_3ghz();
  sim::Rng master(2026);
  const auto pv = sim::ProcessVariation::monte_carlo(master, 0);
  rf::ReceiverBatch chip(mode, pv, master.fork("chip", 0));
  calib::OscillationTuner tuner(chip);
  for (std::uint32_t coarse : {0u, 4u, 8u, 9u, 10u, 12u, 16u, 32u, 64u, 128u, 255u}) {
    const auto m = tuner.measure(coarse, 128);
    std::printf("coarse=%3u fine=128: f=%.4f GHz rms=%.3f\n", coarse,
                m.freq_hz / 1e9, m.rms);
  }
  const rf::LcTank tank(pv);
  std::printf("tank: fres(9,128)=%.4f GHz  q0=%.2f  r(q=63)=%.4f\n",
              tank.resonance_hz(9, 128) / 1e9, tank.q_intrinsic(),
              tank.pole_radius(9, 128, 63, mode.fs_hz()));
  const auto r = tuner.tune(mode.f0_hz);
  std::printf("tune: coarse=%u fine=%u achieved=%.5f GHz conv=%d meas=%zu\n",
              r.cap_coarse, r.cap_fine, r.achieved_hz / 1e9, r.converged,
              r.measurements);
  // Gentle-overdrive characterization: frequency vs fine code at q just
  // above threshold (chip0 threshold is ~24 for q0=7.7 at step 1/192).
  for (std::uint32_t q : {22u, 24u, 26u, 30u, 40u, 63u}) {
    const auto m = tuner.measure_at_q(r.cap_coarse, 128, q, 32768);
    std::printf("q=%2u fine=128: f=%.5f GHz rms=%.3f\n", q, m.freq_hz / 1e9,
                m.rms);
  }
  for (std::uint32_t fine : {0u, 64u, 128u, 192u, 255u}) {
    const auto m = tuner.measure_at_q(r.cap_coarse, fine, 26, 32768);
    std::printf("fine=%3u q=26: f=%.5f GHz rms=%.3f\n", fine, m.freq_hz / 1e9,
                m.rms);
  }
  return 0;
}
