// Unit tests for the CIC decimator (scalar reference).
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <numbers>
#include <vector>

#include "reference_receiver.h"

namespace {

using namespace analock::reference;

TEST(Cic, OutputRateIsDecimated) {
  CicDecimator<double> cic(4, 16);
  std::vector<double> in(160, 1.0);
  const auto out = cic.process(in);
  EXPECT_EQ(out.size(), 10u);
}

TEST(Cic, DcGainNormalizedToUnity) {
  CicDecimator<double> cic(4, 16);
  std::vector<double> in(16 * 40, 1.0);
  const auto out = cic.process(in);
  EXPECT_NEAR(out.back(), 1.0, 1e-9);
}

class CicConfigTest
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(CicConfigTest, DcUnityForAnyConfig) {
  const auto [stages, factor] = GetParam();
  CicDecimator<double> cic(stages, factor);
  std::vector<double> in(factor * (stages + 3) * 4, 0.5);
  const auto out = cic.process(in);
  ASSERT_FALSE(out.empty());
  EXPECT_NEAR(out.back(), 0.5, 1e-9)
      << "stages=" << stages << " factor=" << factor;
}

INSTANTIATE_TEST_SUITE_P(
    Configs, CicConfigTest,
    ::testing::Values(std::pair<std::size_t, std::size_t>{1, 2},
                      std::pair<std::size_t, std::size_t>{2, 4},
                      std::pair<std::size_t, std::size_t>{3, 8},
                      std::pair<std::size_t, std::size_t>{4, 16},
                      std::pair<std::size_t, std::size_t>{5, 32}));

TEST(Cic, AttenuatesNearAliasFrequencies) {
  // A tone at exactly the first CIC null (f = 1/R) must vanish.
  const std::size_t r = 16;
  CicDecimator<double> cic(4, r);
  std::vector<double> in(4096);
  for (std::size_t i = 0; i < in.size(); ++i) {
    in[i] = std::sin(2.0 * std::numbers::pi * static_cast<double>(i) /
                     static_cast<double>(r));
  }
  const auto out = cic.process(in);
  double rms = 0.0;
  std::size_t counted = 0;
  for (std::size_t i = out.size() / 2; i < out.size(); ++i) {
    rms += out[i] * out[i];
    ++counted;
  }
  rms = std::sqrt(rms / static_cast<double>(counted));
  EXPECT_LT(rms, 1e-3);
}

TEST(Cic, PassesSlowSignal) {
  CicDecimator<double> cic(4, 16);
  std::vector<double> in(8192);
  const double f = 1.0 / 2048.0;  // far below the output Nyquist
  for (std::size_t i = 0; i < in.size(); ++i) {
    in[i] = std::sin(2.0 * std::numbers::pi * f * static_cast<double>(i));
  }
  const auto out = cic.process(in);
  double peak = 0.0;
  for (std::size_t i = out.size() / 2; i < out.size(); ++i) {
    peak = std::max(peak, std::abs(out[i]));
  }
  EXPECT_NEAR(peak, 1.0, 0.05);
}

TEST(Cic, ComplexInputWorks) {
  CicDecimator<std::complex<double>> cic(4, 16);
  std::vector<std::complex<double>> in(16 * 32, {1.0, -0.5});
  const auto out = cic.process(in);
  ASSERT_FALSE(out.empty());
  EXPECT_NEAR(out.back().real(), 1.0, 1e-9);
  EXPECT_NEAR(out.back().imag(), -0.5, 1e-9);
}

TEST(Cic, ResetClearsState) {
  CicDecimator<double> cic(2, 4);
  std::vector<double> in(64, 3.0);
  (void)cic.process(in);
  cic.reset();
  std::vector<double> zeros(64, 0.0);
  const auto out = cic.process(zeros);
  for (const double v : out) EXPECT_NEAR(v, 0.0, 1e-12);
}

TEST(Cic, PushReportsOutputCadence) {
  CicDecimator<double> cic(1, 4);
  double y = 0.0;
  int produced = 0;
  for (int i = 0; i < 12; ++i) {
    if (cic.push(1.0, y)) ++produced;
  }
  EXPECT_EQ(produced, 3);
}

}  // namespace
