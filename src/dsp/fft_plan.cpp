#include "dsp/fft_plan.h"

#include <cassert>
#include <cmath>
#include <numbers>

#include "obs/trace.h"

namespace analock::dsp {

FftPlan::FftPlan(std::size_t n) : n_(n) {
  assert(is_power_of_two(n) && "FFT plan size must be a power of two");
  // The classic in-place bit-reversal walk, recorded as swap pairs so
  // run() replays it without re-deriving indices.
  std::size_t j = 0;
  for (std::size_t i = 1; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) {
      swaps_.emplace_back(static_cast<std::uint32_t>(i),
                          static_cast<std::uint32_t>(j));
    }
  }
  // Twiddles per stage, e^{-j pi k / half}: the reference FFT's values,
  // so the butterflies match it bit for bit.
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t half = len >> 1;
    std::vector<cplx> tw(half);
    for (std::size_t k = 0; k < half; ++k) {
      const double angle = -std::numbers::pi * static_cast<double>(k) /
                           static_cast<double>(half);
      tw[k] = {std::cos(angle), std::sin(angle)};
    }
    stage_tw_.push_back(std::move(tw));
  }
}

void FftPlan::run(std::span<cplx> data) const {
  ANALOCK_SPAN_QUIET("dsp.fft");
  assert(data.size() == n_ && "FFT plan size mismatch");
  if (n_ <= 1) return;
  for (const auto& [i, j] : swaps_) std::swap(data[i], data[j]);
  std::size_t stage = 0;
  for (std::size_t len = 2; len <= n_; len <<= 1, ++stage) {
    const std::size_t half = len >> 1;
    const cplx* tw = stage_tw_[stage].data();
    for (std::size_t block = 0; block < n_; block += len) {
      cplx* lo = data.data() + block;
      cplx* hi = lo + half;
      for (std::size_t k = 0; k < half; ++k) {
        // odd = hi[k] * tw[k], even = lo[k]; see the header for why the
        // product is spelled out.
        const double xr = hi[k].real(), xi = hi[k].imag();
        const double wr = tw[k].real(), wi = tw[k].imag();
        const double odd_re = xr * wr - xi * wi;
        const double odd_im = xr * wi + xi * wr;
        const double even_re = lo[k].real(), even_im = lo[k].imag();
        lo[k] = {even_re + odd_re, even_im + odd_im};
        hi[k] = {even_re - odd_re, even_im - odd_im};
      }
    }
  }
}

RealFftPlan::RealFftPlan(std::size_t n) : n_(n), half_(n / 2) {
  assert(is_power_of_two(n) && n >= 2 &&
         "real FFT plan size must be a power of two >= 2");
  const std::size_t m = n / 2;
  unpack_tw_.resize(m);
  for (std::size_t k = 0; k < m; ++k) {
    const double angle =
        -2.0 * std::numbers::pi * static_cast<double>(k) /
        static_cast<double>(n);
    unpack_tw_[k] = {std::cos(angle), std::sin(angle)};
  }
}

void RealFftPlan::run(std::span<const double> input, std::span<cplx> out,
                      std::span<const double> window) const {
  assert(input.size() == n_ && "real FFT input size mismatch");
  assert(out.size() == bins() && "real FFT output size mismatch");
  assert((window.empty() || window.size() == n_) &&
         "real FFT window size mismatch");
  const std::size_t m = n_ / 2;
  // Pack even samples into the real part, odd samples into the
  // imaginary part of out[0..m), then run one half-size complex FFT
  // there. Windowing while packing stores the same products as
  // windowing into a separate buffer first.
  const std::span<cplx> z = out.first(m);
  if (window.empty()) {
    for (std::size_t k = 0; k < m; ++k) {
      z[k] = {input[2 * k], input[2 * k + 1]};
    }
  } else {
    for (std::size_t k = 0; k < m; ++k) {
      z[k] = {input[2 * k] * window[2 * k],
              input[2 * k + 1] * window[2 * k + 1]};
    }
  }
  half_.run(z);

  // Unpack in place: with E/O the transforms of the even/odd
  // subsequences,
  //   X[k] = E[k] + w^k O[k],  w = e^{-j 2 pi / n}
  // where E[k] = (Z[k] + conj(Z[m-k]))/2 and
  //       O[k] = -j (Z[k] - conj(Z[m-k]))/2, Z[m] := Z[0].
  // X[k] and X[m-k] read the same two Z bins, so each pair is read
  // before either is overwritten.
  const auto unpack = [this](cplx zk, cplx zc, std::size_t k) {
    const cplx even = (zk + zc) * 0.5;
    const cplx diff = (zk - zc) * 0.5;
    // odd = -j * diff; the twiddle product w * odd is spelled out as in
    // FftPlan::run.
    const double odd_re = diff.imag(), odd_im = -diff.real();
    const double wr = unpack_tw_[k].real(), wi = unpack_tw_[k].imag();
    return cplx{even.real() + (wr * odd_re - wi * odd_im),
                even.imag() + (wr * odd_im + wi * odd_re)};
  };
  const cplx z0 = z[0];
  out[0] = {z0.real() + z0.imag(), 0.0};
  out[m] = {z0.real() - z0.imag(), 0.0};
  for (std::size_t k = 1; 2 * k <= m; ++k) {
    const std::size_t j = m - k;
    const cplx zk = z[k];
    const cplx zj = z[j];
    out[k] = unpack(zk, std::conj(zj), k);
    if (j != k) out[j] = unpack(zj, std::conj(zk), j);
  }
}

void RealFftPlan::run_many(std::span<const double> signals,
                           std::span<cplx> out, std::size_t lanes) const {
  assert(signals.size() == lanes * n_ && "lane-major input size mismatch");
  assert(out.size() == lanes * bins() && "lane-major output size mismatch");
  for (std::size_t l = 0; l < lanes; ++l) {
    run(signals.subspan(l * n_, n_), out.subspan(l * bins(), bins()));
  }
}

}  // namespace analock::dsp
