// Unit tests for FIR design (dsp/fir.h) and the scalar reference's
// streaming and decimating FIRs.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <numbers>

#include "dsp/fir.h"
#include "reference_receiver.h"

namespace {

using namespace analock::dsp;
using namespace analock::reference;

TEST(FirDesign, LowpassUnityDcGain) {
  const auto h = design_lowpass(0.2, 63);
  double sum = 0.0;
  for (const double t : h) sum += t;
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(FirDesign, LowpassIsSymmetric) {
  const auto h = design_lowpass(0.1, 31);
  for (std::size_t i = 0; i < h.size() / 2; ++i) {
    EXPECT_NEAR(h[i], h[h.size() - 1 - i], 1e-12);
  }
}

TEST(FirDesign, MagnitudeResponseShape) {
  const auto h = design_lowpass(0.2, 101);
  EXPECT_NEAR(fir_magnitude(h, 0.0), 1.0, 1e-6);
  EXPECT_NEAR(fir_magnitude(h, 0.2), 0.5, 0.05);  // -6 dB at cutoff
  EXPECT_LT(fir_magnitude(h, 0.35), 0.01);        // stopband
  EXPECT_GT(fir_magnitude(h, 0.1), 0.99);         // passband
}

class LowpassCutoffTest : public ::testing::TestWithParam<double> {};

TEST_P(LowpassCutoffTest, CutoffAtMinus6dB) {
  const double fc = GetParam();
  const auto h = design_lowpass(fc, 127);
  EXPECT_NEAR(fir_magnitude(h, fc), 0.5, 0.05) << "cutoff " << fc;
  EXPECT_GT(fir_magnitude(h, fc * 0.5), 0.95);
}

INSTANTIATE_TEST_SUITE_P(Cutoffs, LowpassCutoffTest,
                         ::testing::Values(0.05, 0.1, 0.15, 0.2, 0.25, 0.3,
                                           0.4));

TEST(FirDesign, HalfbandStructure) {
  const auto h = design_halfband(23);
  const std::size_t center = 11;
  for (std::size_t i = 0; i < h.size(); ++i) {
    const std::size_t offset = i > center ? i - center : center - i;
    if (offset != 0 && offset % 2 == 0) {
      EXPECT_DOUBLE_EQ(h[i], 0.0) << "tap " << i;
    }
  }
  double sum = 0.0;
  for (const double t : h) sum += t;
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(FirDesign, HalfbandSymmetryAroundQuarterRate) {
  const auto h = design_halfband(63);
  // |H(f)|^2 + |H(0.5-f)|^2 ~ 1 for a half-band filter.
  for (double f : {0.05, 0.1, 0.15, 0.2}) {
    const double a = fir_magnitude(h, f);
    const double b = fir_magnitude(h, 0.5 - f);
    EXPECT_NEAR(a * a + b * b, 1.0, 0.02) << "f " << f;
  }
}

TEST(Fir, ImpulseResponseMatchesTaps) {
  const std::vector<double> taps{0.25, 0.5, 0.25};
  Fir<double> fir(taps);
  EXPECT_NEAR(fir.process(1.0), 0.25, 1e-12);
  EXPECT_NEAR(fir.process(0.0), 0.5, 1e-12);
  EXPECT_NEAR(fir.process(0.0), 0.25, 1e-12);
  EXPECT_NEAR(fir.process(0.0), 0.0, 1e-12);
}

TEST(Fir, ResetClearsState) {
  Fir<double> fir({1.0, 1.0});
  fir.process(5.0);
  fir.reset();
  EXPECT_NEAR(fir.process(0.0), 0.0, 1e-12);
}

TEST(Fir, ComplexSamplesWork) {
  Fir<std::complex<double>> fir({0.5, 0.5});
  const auto y0 = fir.process({1.0, 1.0});
  EXPECT_NEAR(y0.real(), 0.5, 1e-12);
  EXPECT_NEAR(y0.imag(), 0.5, 1e-12);
  const auto y1 = fir.process({0.0, 0.0});
  EXPECT_NEAR(y1.real(), 0.5, 1e-12);
}

TEST(DecimatingFir, ProducesOneOutputPerFactor) {
  DecimatingFir<double> dec(design_lowpass(0.2, 31), 4);
  std::vector<double> in(100, 1.0);
  const auto out = dec.process(in);
  EXPECT_EQ(out.size(), 25u);
}

TEST(DecimatingFir, DcPassesThrough) {
  DecimatingFir<double> dec(design_lowpass(0.2, 31), 4);
  std::vector<double> in(400, 1.0);
  const auto out = dec.process(in);
  // After fill-in the output settles at the DC gain (1.0).
  EXPECT_NEAR(out.back(), 1.0, 1e-6);
}

TEST(DecimatingFir, RejectsOutOfBandTone) {
  // Tone at 0.4 cycles/sample would alias to 0.1 after /2; the half-band
  // filter must crush it first.
  DecimatingFir<double> dec(design_halfband(63), 2);
  std::vector<double> in(2048);
  for (std::size_t i = 0; i < in.size(); ++i) {
    in[i] = std::sin(2.0 * std::numbers::pi * 0.4 * static_cast<double>(i));
  }
  const auto out = dec.process(in);
  double rms = 0.0;
  for (std::size_t i = out.size() / 2; i < out.size(); ++i) {
    rms += out[i] * out[i];
  }
  rms = std::sqrt(rms / (static_cast<double>(out.size()) / 2.0));
  EXPECT_LT(rms, 0.02);
}

TEST(DecimatingFir, KeepsInBandTone) {
  DecimatingFir<double> dec(design_halfband(63), 2);
  std::vector<double> in(2048);
  for (std::size_t i = 0; i < in.size(); ++i) {
    in[i] = std::sin(2.0 * std::numbers::pi * 0.05 * static_cast<double>(i));
  }
  const auto out = dec.process(in);
  double peak = 0.0;
  for (std::size_t i = out.size() / 2; i < out.size(); ++i) {
    peak = std::max(peak, std::abs(out[i]));
  }
  EXPECT_NEAR(peak, 1.0, 0.05);
}

}  // namespace
