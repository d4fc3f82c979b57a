// The configuration word -> block parameter map of the receiver (paper
// Figs. 4-6): one pure function from a chip (standard, process corner)
// and a decoded configuration to every constant the time-domain model
// steps one lane with — the VGLNA gain stages and noise, the bias-
// dependent gains, offsets and noise of the modulator blocks, the tank
// poles set by Cc, Cf and -Gm, the loop delay and the output buffer.
//
// rf::ReceiverBatch steps its lanes with these constants, and the scalar
// parity reference in tests/ takes its constants from the same function,
// so the two steppers share one map by construction. The noise streams
// are the chip's RNG's; no constant depends on them.
#pragma once

#include <cstdint>

#include "rf/receiver.h"
#include "rf/standards.h"
#include "rf/vglna.h"
#include "sim/process.h"

namespace analock::rf {

/// The constants of one configured receiver.
struct LaneConstants {
  /// The stateless front end (VGLNA cascade + input transconductor). Two
  /// lanes whose front ends are bitwise equal compute the same loop
  /// signal from the same stimulus and noise.
  struct FrontEnd {
    Vglna::Stage vglna_stage;  ///< all five stages are identical
    double vglna_rms = 0.0;    ///< VGLNA input noise (volts RMS)
    double gm = 0.0;           ///< effective transconductance
    double gm_iip3 = 0.0;      ///< transconductor IIP3 amplitude
    double gm_rms = 0.0;       ///< transconductor noise (FS RMS)
  };
  FrontEnd front_end;

  // Control bits, straight from the configuration.
  bool gmin_enable = true;
  bool feedback_enable = true;
  bool comp_clock_enable = true;
  bool buffer_in_path = false;
  std::uint8_t test_mux = 0;  ///< 2-bit output mux

  // Loop filter: the two resonators' cos(theta) and pole radius.
  double res1_cos = 0.0;
  double res1_radius = 0.0;
  double res2_cos = 0.0;
  double res2_radius = 0.0;

  // Quantizer path.
  double preamp_gain = 0.0;
  double preamp_rms = 0.0;
  double comp_offset = 0.0;
  double comp_rms = 0.0;
  double dac_plus = 0.0;   ///< DAC output level for a +1 decision
  double dac_minus = 0.0;  ///< DAC output level for a -1 decision
  double dac_rms = 0.0;
  double delay_samples = 0.0;  ///< fractional delay line's delay

  // Calibration output buffer.
  double buffer_gain = 0.0;
  double buffer_rms = 0.0;
};

/// The constants of `config` on the chip (`standard`, `process`).
[[nodiscard]] LaneConstants lane_constants(const Standard& standard,
                                           const sim::ProcessVariation& process,
                                           const ReceiverConfig& config);

}  // namespace analock::rf
