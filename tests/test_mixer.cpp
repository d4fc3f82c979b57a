// Unit tests for the fs/4 down-conversion mixer (scalar reference).
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <vector>

#include "dsp/spectrum.h"
#include "reference_receiver.h"

namespace {

using namespace analock::dsp;
using namespace analock::reference;

TEST(QuarterRateMixer, LoSequenceIsExact) {
  QuarterRateMixer mixer;
  // x = 1 at every sample exposes the LO: 1, -j, -1, +j.
  const auto y0 = mixer.mix(1.0);
  const auto y1 = mixer.mix(1.0);
  const auto y2 = mixer.mix(1.0);
  const auto y3 = mixer.mix(1.0);
  EXPECT_EQ(y0, (std::complex<double>{1.0, 0.0}));
  EXPECT_EQ(y1, (std::complex<double>{0.0, -1.0}));
  EXPECT_EQ(y2, (std::complex<double>{-1.0, 0.0}));
  EXPECT_EQ(y3, (std::complex<double>{0.0, 1.0}));
}

TEST(QuarterRateMixer, PhaseWrapsEveryFour) {
  QuarterRateMixer mixer;
  std::vector<std::complex<double>> first;
  for (int i = 0; i < 4; ++i) first.push_back(mixer.mix(1.0));
  for (int cycle = 0; cycle < 3; ++cycle) {
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(mixer.mix(1.0), first[static_cast<std::size_t>(i)]);
    }
  }
}

TEST(QuarterRateMixer, Fs4ToneLandsAtDc) {
  const double fs = 1.0e6;
  const std::size_t n = 4096;
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = std::cos(2.0 * std::numbers::pi * (fs / 4.0) *
                    static_cast<double>(i) / fs);
  }
  QuarterRateMixer mixer;
  const auto bb = mixer.process(x);
  // Mean of the baseband should be 0.5 (the positive-frequency half).
  std::complex<double> mean{0.0, 0.0};
  for (const auto& v : bb) mean += v;
  mean /= static_cast<double>(n);
  EXPECT_NEAR(mean.real(), 0.5, 1e-3);
  EXPECT_NEAR(std::abs(mean.imag()), 0.0, 1e-3);
}

TEST(QuarterRateMixer, OffsetToneLandsAtOffset) {
  const double fs = 1.0e6;
  const std::size_t n = 4096;
  const double offset = 16.0 * fs / static_cast<double>(n);
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = std::cos(2.0 * std::numbers::pi * (fs / 4.0 + offset) *
                    static_cast<double>(i) / fs);
  }
  QuarterRateMixer mixer;
  const auto bb = mixer.process(x);
  const Periodogram p(bb, fs);
  const auto tone = p.tone_power(offset);
  EXPECT_NEAR(tone.power, 0.25, 0.03);  // half the amplitude -> A^2/4
  EXPECT_NEAR(p.freq_of(tone.peak_bin), offset, p.bin_hz() + 1e-9);
}

TEST(QuarterRateMixer, ResetRestartsPhase) {
  QuarterRateMixer mixer;
  const auto a = mixer.mix(1.0);
  mixer.mix(1.0);
  mixer.reset();
  EXPECT_EQ(mixer.mix(1.0), a);
}

}  // namespace
