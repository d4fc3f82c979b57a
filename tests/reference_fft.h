// Reference radix-2 FFT: the `std::complex` transform the library used
// before dsp::FftPlan, and the real-input unpack on the same arithmetic.
// The plans spell their complex products out on doubles (see
// fft_plan.h); the plan tests compare them with these recipes bit for
// bit, test_fft.cpp checks the transforms, and the TSan stress case
// hammers the shared twiddle cache.
#pragma once

#include <cassert>
#include <cmath>
#include <map>
#include <mutex>
#include <numbers>
#include <span>
#include <utility>
#include <vector>

#include "dsp/fft_plan.h"

namespace analock::reference {

using dsp::cplx;

/// Twiddle factors e^{-j pi k / half} for k in [0, half), cached per size.
///
/// The cache is shared across threads, so lookups and inserts hold a
/// mutex. Entries are immutable once inserted and std::map nodes are
/// stable, so the returned reference stays valid after the lock drops.
inline const std::vector<cplx>& twiddles_for(std::size_t half) {
  static std::mutex cache_mu;
  static std::map<std::size_t, std::vector<cplx>> cache;  // guarded by cache_mu
  std::lock_guard<std::mutex> lk(cache_mu);
  auto it = cache.find(half);
  if (it != cache.end()) return it->second;
  std::vector<cplx> tw(half);
  for (std::size_t k = 0; k < half; ++k) {
    const double angle =
        -std::numbers::pi * static_cast<double>(k) / static_cast<double>(half);
    tw[k] = {std::cos(angle), std::sin(angle)};
  }
  return cache.emplace(half, std::move(tw)).first->second;
}

inline void bit_reverse_permute(std::span<cplx> data) {
  const std::size_t n = data.size();
  std::size_t j = 0;
  for (std::size_t i = 1; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(data[i], data[j]);
  }
}

/// In-place decimation-in-time radix-2 FFT. `data.size()` must be a power
/// of two. Forward transform uses the e^{-j2pi/N} kernel.
inline void fft_inplace(std::span<cplx> data) {
  const std::size_t n = data.size();
  assert(dsp::is_power_of_two(n) && "FFT size must be a power of two");
  if (n <= 1) return;
  bit_reverse_permute(data);
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t half = len >> 1;
    const auto& tw = twiddles_for(half);
    for (std::size_t block = 0; block < n; block += len) {
      for (std::size_t k = 0; k < half; ++k) {
        const cplx odd = data[block + k + half] * tw[k];
        const cplx even = data[block + k];
        data[block + k] = even + odd;
        data[block + k + half] = even - odd;
      }
    }
  }
}

/// In-place inverse FFT including the 1/N normalization.
inline void ifft_inplace(std::span<cplx> data) {
  for (auto& x : data) x = std::conj(x);
  fft_inplace(data);
  const double scale = 1.0 / static_cast<double>(data.size());
  for (auto& x : data) x = std::conj(x) * scale;
}

/// Out-of-place forward FFT of a real sequence; returns N complex bins.
inline std::vector<cplx> fft_real(std::span<const double> data) {
  std::vector<cplx> buf(data.begin(), data.end());
  fft_inplace(buf);
  return buf;
}

/// Half spectrum X[0..n/2] of a real sequence, packed and unpacked the
/// way dsp::RealFftPlan does it but with `std::complex` arithmetic:
/// the even samples (times `window`, when one is given) go to the real
/// part and the odd ones to the imaginary part of an n/2-point FFT.
inline std::vector<cplx> real_fft_half(std::span<const double> x,
                                       std::span<const double> window = {}) {
  const std::size_t n = x.size();
  const std::size_t m = n / 2;
  std::vector<cplx> z(m);
  for (std::size_t k = 0; k < m; ++k) {
    z[k] = window.empty() ? cplx{x[2 * k], x[2 * k + 1]}
                          : cplx{x[2 * k] * window[2 * k],
                                 x[2 * k + 1] * window[2 * k + 1]};
  }
  fft_inplace(z);
  std::vector<cplx> out(m + 1);
  out[0] = {z[0].real() + z[0].imag(), 0.0};
  out[m] = {z[0].real() - z[0].imag(), 0.0};
  for (std::size_t k = 1; k < m; ++k) {
    const double angle = -2.0 * std::numbers::pi * static_cast<double>(k) /
                         static_cast<double>(n);
    const cplx w = {std::cos(angle), std::sin(angle)};
    const cplx zc = std::conj(z[m - k]);
    const cplx even = (z[k] + zc) * 0.5;
    const cplx diff = (z[k] - zc) * 0.5;
    out[k] = even + w * cplx{diff.imag(), -diff.real()};
  }
  return out;
}

}  // namespace analock::reference
