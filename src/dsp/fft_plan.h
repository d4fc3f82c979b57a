// Radix-2 FFT plans: the library's only FFT.
//
// Sized for the paper's metrology: 8192-point transforms of the
// modulator bitstream. Power-of-two sizes only. A plan precomputes the
// bit-reverse permutation and per-stage twiddle tables once, owns them,
// and is immutable afterwards: `run()` is const and safe to call from
// any number of threads concurrently.
//
// The butterflies multiply on doubles, (xr*wr - xi*wi, xr*wi + xi*wr),
// rather than through `std::complex<double>::operator*`. For finite
// products that is the very formula the compiler's inline complex
// multiply evaluates, so the bits are the same. What the spelled-out
// form avoids is the Annex G recovery branch (a `__muldc3` call when
// both parts come out NaN) and the stack round trip the compiler builds
// around it, which stalls store forwarding on every butterfly. Captures
// are railed and FFT sums of them stay finite, so that branch could
// never change a result.
// tests/reference_fft.h keeps the `std::complex` FFT as the reference
// every plan is compared with bit for bit.
//
// `RealFftPlan` packs an N-point real transform into one N/2-point
// complex FFT (real-even packing) and unpacks the half spectrum
// X[0..N/2]; by conjugate symmetry that is the whole transform. The
// `run_many` entry point processes lane-major batches of signals.
// `run` packs into and unpacks within its output span, so callers that
// shard lanes across pool workers allocate nothing inside them.
#pragma once

#include <complex>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace analock::dsp {

using cplx = std::complex<double>;

/// Returns true if n is a power of two (and nonzero).
[[nodiscard]] constexpr bool is_power_of_two(std::size_t n) {
  return n != 0 && (n & (n - 1)) == 0;
}

/// Next power of two >= n.
[[nodiscard]] constexpr std::size_t next_power_of_two(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

class FftPlan {
 public:
  /// `n` must be a power of two (n >= 1).
  explicit FftPlan(std::size_t n);

  [[nodiscard]] std::size_t size() const { return n_; }

  /// In-place forward DIT radix-2 FFT with the e^{-j2pi/N} kernel.
  /// `data.size()` must equal size(). Const and thread-safe.
  void run(std::span<cplx> data) const;

 private:
  std::size_t n_ = 1;
  /// Swap pairs (i, j) with i < j from the bit-reversal permutation.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> swaps_;
  /// stage_tw_[s] holds e^{-j pi k / 2^s} for k in [0, 2^s); stage s
  /// processes butterflies of length 2^(s+1).
  std::vector<std::vector<cplx>> stage_tw_;
};

class RealFftPlan {
 public:
  /// `n` is the real input length; must be a power of two >= 2.
  explicit RealFftPlan(std::size_t n);

  [[nodiscard]] std::size_t size() const { return n_; }
  /// Number of output bins per signal: n/2 + 1 (X[0] through X[n/2]).
  [[nodiscard]] std::size_t bins() const { return n_ / 2 + 1; }

  /// Forward FFT of one real signal. `input.size()` must equal size()
  /// and `out.size()` must equal bins(). Negative-frequency bins follow
  /// from conjugate symmetry: X[n-k] == conj(out[k]) exactly. `out` is
  /// also the packing buffer, so the call allocates nothing. A non-empty
  /// `window` (size() samples) multiplies the input as it is packed; the
  /// spectrum is bit-identical to transforming a windowed copy.
  void run(std::span<const double> input, std::span<cplx> out,
           std::span<const double> window = {}) const;

  /// Forward FFT of `lanes` signals stored lane-major and contiguous:
  /// signal l occupies signals[l*size() .. (l+1)*size()), its spectrum
  /// lands in out[l*bins() .. (l+1)*bins()).
  void run_many(std::span<const double> signals, std::span<cplx> out,
                std::size_t lanes) const;

 private:
  std::size_t n_ = 2;
  FftPlan half_;
  /// Unpack twiddles e^{-j 2 pi k / n} for k in [0, n/2).
  std::vector<cplx> unpack_tw_;
};

}  // namespace analock::dsp
