// Band-pass RF sigma-delta modulator (paper Fig. 6, after Ashry &
// Aboushady's 4th-order fs/4 architecture [18]).
//
// Discrete-time behavioral model: two tunable LC resonators in a
// cascade-of-resonators feedback loop with a 1-bit clocked comparator, a
// fractional loop delay and a 1-bit feedback DAC. At the nominal
// configuration (tank tuned to fs/4, unity feedback, 2-sample loop delay)
// the linearized noise transfer function is (1 + z^-2)^2 — deep noise
// nulls at the fs/4 carrier. Every deviation programmed through the
// 60-bit modulator configuration degrades or destroys that shaping, which
// is exactly the locking mechanism of the paper.
//
// One sample of the loop, with fb the delay line's output when the
// feedback is enabled (else 0), u the transconductor output and v the
// comparator decision:
//   s1[n] = res1(-(u[n-2] -     fb) + tank noise)
//   s2[n] = res2(-(s1[n-2] - 2 fb) + tank noise)
//   v[n]  = comparator(preamp(s2[n])); the DAC converts v[n] into the
//           delay line whether or not the loop is closed.
// The 2-bit test mux and the calibration buffer then select the output.
// rf::lane_constants maps the 60-bit configuration to the blocks'
// constants; rf::ReceiverBatch steps the loop.
#pragma once

#include <cstdint>

#include "rf/lc_tank.h"
#include "rf/sd_blocks.h"

namespace analock::rf {

/// Decoded programming state of the modulator's analog section (60 bits;
/// the remaining 4 of the 64-bit word drive the VGLNA). See
/// lock/key_layout.h for the packed representation.
struct ModulatorConfig {
  std::uint32_t cap_coarse = 0;   ///< 8-bit coarse capacitor array Cc
  std::uint32_t cap_fine = 0;    ///< 8-bit fine capacitor array Cf
  std::uint32_t q_enh = 0;       ///< 6-bit -Gm Q-enhancement code
  std::uint32_t gmin_bias = 32;  ///< 6-bit input transconductor bias
  std::uint32_t dac_bias = 32;   ///< 6-bit feedback DAC bias
  std::uint32_t preamp_bias = 32;  ///< 6-bit pre-amplifier bias
  std::uint32_t comp_bias = 32;  ///< 6-bit comparator bias
  std::uint32_t loop_delay = 8;  ///< 4-bit loop-delay trim
  std::uint32_t out_buffer = 8;  ///< 4-bit calibration output buffer gain
  bool feedback_enable = true;   ///< DAC + loop delay active (cal step 4)
  bool comp_clock_enable = true; ///< comparator clocked (cal step 1)
  bool gmin_enable = true;       ///< RF input connected (cal step 3)
  bool buffer_in_path = false;   ///< output buffer in path (cal step 2)
  std::uint32_t test_mux = 0;    ///< 2-bit output mux: 0=comparator,
                                 ///< 1=resonator-1 tap, 2=pre-amp tap,
                                 ///< 3=muxed off

  friend bool operator==(const ModulatorConfig&,
                         const ModulatorConfig&) = default;
};

/// Tank-loss thermal noise seeding each resonator (FS units / sample).
inline constexpr double kTankNoiseRms = 0.001;

}  // namespace analock::rf
