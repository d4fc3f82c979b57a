#include "rf/receiver.h"

#include "dsp/tonegen.h"

namespace analock::rf {

std::size_t receiver_input_length(std::size_t baseband_points,
                                  std::size_t settle,
                                  std::size_t settle_baseband) {
  return settle +
         (baseband_points + settle_baseband + 1) * DigitalBackend::kTotalDecimation;
}

double default_tone_offset_hz(const Standard& standard) {
  // 16 bins of an 8192-point FFT at fs: the tone sits well inside the
  // OSR-64 band (half-width 32 bins) while every aliased odd harmonic
  // k*(fs/4 + 16 bins) of a hard-limited waveform folds to |fs/4 -
  // 48 bins| or beyond — outside the band, so the SNR metrology measures
  // noise, not counting the limiter harmonics as in-band spurs.
  return 16.0 * standard.fs_hz() / 8192.0;
}

std::vector<double> make_test_tone(const Standard& standard, double dbm,
                                   std::size_t n, double offset_hz) {
  const double offset =
      offset_hz < 0.0 ? default_tone_offset_hz(standard) : offset_hz;
  auto gen = dsp::single_tone_dbm(standard.f0_hz + offset, dbm,
                                  standard.fs_hz());
  return gen.generate(n);
}

std::vector<double> make_two_tone(const Standard& standard,
                                  double dbm_per_tone, std::size_t n,
                                  double spacing_hz) {
  const double center = standard.f0_hz + default_tone_offset_hz(standard);
  auto gen =
      dsp::two_tone_dbm(center, spacing_hz, dbm_per_tone, standard.fs_hz());
  return gen.generate(n);
}

}  // namespace analock::rf
