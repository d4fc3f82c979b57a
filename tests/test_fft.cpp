// Unit tests for the reference radix-2 FFT (tests/reference_fft.h) that
// every dsp::FftPlan is compared with bit for bit, and for the size
// helpers in dsp/fft_plan.h.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <vector>

#include "dsp/fft_plan.h"
#include "reference_fft.h"
#include "sim/rng.h"

namespace {

using namespace analock::dsp;
using namespace analock::reference;

TEST(Fft, PowerOfTwoPredicate) {
  EXPECT_TRUE(is_power_of_two(1));
  EXPECT_TRUE(is_power_of_two(2));
  EXPECT_TRUE(is_power_of_two(8192));
  EXPECT_FALSE(is_power_of_two(0));
  EXPECT_FALSE(is_power_of_two(3));
  EXPECT_FALSE(is_power_of_two(8191));
}

TEST(Fft, NextPowerOfTwo) {
  EXPECT_EQ(next_power_of_two(1), 1u);
  EXPECT_EQ(next_power_of_two(2), 2u);
  EXPECT_EQ(next_power_of_two(3), 4u);
  EXPECT_EQ(next_power_of_two(1000), 1024u);
}

TEST(Fft, DcInput) {
  std::vector<cplx> x(8, cplx{1.0, 0.0});
  fft_inplace(x);
  EXPECT_NEAR(x[0].real(), 8.0, 1e-12);
  for (std::size_t k = 1; k < 8; ++k) {
    EXPECT_NEAR(std::abs(x[k]), 0.0, 1e-12) << "bin " << k;
  }
}

TEST(Fft, SingleToneLandsInOneBin) {
  const std::size_t n = 64;
  const std::size_t k0 = 5;
  std::vector<cplx> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double phase = 2.0 * std::numbers::pi *
                         static_cast<double>(k0 * i) / static_cast<double>(n);
    x[i] = {std::cos(phase), std::sin(phase)};
  }
  fft_inplace(x);
  EXPECT_NEAR(std::abs(x[k0]), static_cast<double>(n), 1e-9);
  for (std::size_t k = 0; k < n; ++k) {
    if (k == k0) continue;
    EXPECT_NEAR(std::abs(x[k]), 0.0, 1e-9) << "bin " << k;
  }
}

TEST(Fft, RealSineIsConjugateSymmetric) {
  const std::size_t n = 128;
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = std::sin(2.0 * std::numbers::pi * 7.0 * static_cast<double>(i) /
                    static_cast<double>(n));
  }
  const auto spectrum = fft_real(x);
  for (std::size_t k = 1; k < n / 2; ++k) {
    EXPECT_NEAR(spectrum[k].real(), spectrum[n - k].real(), 1e-9);
    EXPECT_NEAR(spectrum[k].imag(), -spectrum[n - k].imag(), 1e-9);
  }
}

TEST(Fft, InverseRecoversInput) {
  analock::sim::Rng rng(3);
  std::vector<cplx> x(256);
  for (auto& v : x) v = {rng.gaussian(), rng.gaussian()};
  auto y = x;
  fft_inplace(y);
  ifft_inplace(y);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(y[i].real(), x[i].real(), 1e-9);
    EXPECT_NEAR(y[i].imag(), x[i].imag(), 1e-9);
  }
}

TEST(Fft, ParsevalHolds) {
  analock::sim::Rng rng(5);
  const std::size_t n = 1024;
  std::vector<cplx> x(n);
  double time_energy = 0.0;
  for (auto& v : x) {
    v = {rng.gaussian(), rng.gaussian()};
    time_energy += std::norm(v);
  }
  auto y = x;
  fft_inplace(y);
  double freq_energy = 0.0;
  for (const auto& v : y) freq_energy += std::norm(v);
  EXPECT_NEAR(freq_energy / static_cast<double>(n), time_energy,
              time_energy * 1e-10);
}

TEST(Fft, LinearityHolds) {
  analock::sim::Rng rng(9);
  const std::size_t n = 64;
  std::vector<cplx> a(n), b(n), sum(n);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = {rng.gaussian(), rng.gaussian()};
    b[i] = {rng.gaussian(), rng.gaussian()};
    sum[i] = a[i] + 2.0 * b[i];
  }
  fft_inplace(a);
  fft_inplace(b);
  fft_inplace(sum);
  for (std::size_t k = 0; k < n; ++k) {
    const cplx expected = a[k] + 2.0 * b[k];
    EXPECT_NEAR(std::abs(sum[k] - expected), 0.0, 1e-8);
  }
}

TEST(Fft, SizeOneAndTwo) {
  std::vector<cplx> one{cplx{3.0, -1.0}};
  fft_inplace(one);
  EXPECT_NEAR(one[0].real(), 3.0, 1e-12);

  std::vector<cplx> two{cplx{1.0, 0.0}, cplx{-1.0, 0.0}};
  fft_inplace(two);
  EXPECT_NEAR(two[0].real(), 0.0, 1e-12);
  EXPECT_NEAR(two[1].real(), 2.0, 1e-12);
}

TEST(Fft, PaperSize8192Works) {
  std::vector<double> x(8192, 0.0);
  x[0] = 1.0;  // impulse -> flat spectrum
  const auto spectrum = fft_real(x);
  for (std::size_t k = 0; k < spectrum.size(); k += 512) {
    EXPECT_NEAR(std::abs(spectrum[k]), 1.0, 1e-9);
  }
}

}  // namespace
