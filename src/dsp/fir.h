// FIR filter design (windowed sinc).
//
// The receiver's digital decimation chain (paper Fig. 4) is a CIC stage
// followed by half-band and channel FIR stages designed here.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "dsp/window.h"

namespace analock::dsp {

/// Linear-phase lowpass by the windowed-sinc method.
/// `cutoff_norm` is the -6 dB cutoff as a fraction of the sample rate
/// (0 < cutoff_norm < 0.5). `taps` must be odd for a symmetric type-I FIR.
[[nodiscard]] std::vector<double> design_lowpass(double cutoff_norm,
                                                 std::size_t taps,
                                                 WindowKind window =
                                                     WindowKind::kBlackman);

/// Half-band lowpass (cutoff 0.25) with every second tap zero except the
/// center; suited to decimate-by-2 stages. `taps` must be of form 4k+3.
[[nodiscard]] std::vector<double> design_halfband(std::size_t taps,
                                                  WindowKind window =
                                                      WindowKind::kBlackman);

/// Magnitude response of an FIR at normalized frequency f (cycles/sample).
[[nodiscard]] double fir_magnitude(std::span<const double> taps, double f_norm);

}  // namespace analock::dsp
