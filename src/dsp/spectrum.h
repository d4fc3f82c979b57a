// Spectral metrology: periodograms and the SNR / SFDR / band-power
// measurements the paper's evaluation is built on (8192-point FFT, in-band
// integration for an oversampling ratio of 64, two-tone SFDR).
#pragma once

#include <complex>
#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "dsp/fft_plan.h"
#include "dsp/window.h"
#include "par/thread_pool.h"

namespace analock::dsp {

/// Power spectrum with Parseval-exact energy normalization:
/// sum over all bins of `power` equals the mean-square value of the input
/// capture. A real sinusoid of amplitude A therefore integrates to A^2/2
/// over its (folded, one-sided) main lobe.
class Periodogram {
 public:
  /// One-sided periodogram of a real capture. `x.size()` must be a power
  /// of two.
  Periodogram(std::span<const double> x, double fs_hz,
              WindowKind window = WindowKind::kHann);

  /// Two-sided periodogram of a complex (baseband) capture; bin k maps to
  /// frequency k*fs/N for k < N/2 and (k-N)*fs/N above (negative
  /// frequencies in the upper half).
  Periodogram(std::span<const cplx> x, double fs_hz,
              WindowKind window = WindowKind::kHann);

  /// Periodograms of `lanes` real captures stored lane-major and
  /// contiguous (lane l occupies signals[l*n, (l+1)*n)). The window and
  /// FFT plan are built once and shared across the batch, and the lanes
  /// shard across `pool`. Every lane runs the single-capture arithmetic,
  /// so each spectrum is bit-identical to constructing that lane's
  /// Periodogram separately, whatever the pool's thread count. Charges
  /// lanes * n to the `dsp.fft.points` counter.
  [[nodiscard]] static std::vector<Periodogram> many_real(
      std::span<const double> signals, std::size_t lanes, double fs_hz,
      WindowKind window = WindowKind::kHann,
      par::ThreadPool& pool = par::ThreadPool::shared());

  /// Two-sided batched counterpart of many_real for complex captures.
  [[nodiscard]] static std::vector<Periodogram> many_complex(
      std::span<const cplx> signals, std::size_t lanes, double fs_hz,
      WindowKind window = WindowKind::kHann,
      par::ThreadPool& pool = par::ThreadPool::shared());

  [[nodiscard]] const std::vector<double>& power() const { return power_; }
  [[nodiscard]] double fs() const { return fs_; }
  [[nodiscard]] bool one_sided() const { return one_sided_; }
  [[nodiscard]] std::size_t size() const { return power_.size(); }
  [[nodiscard]] std::size_t fft_size() const { return fft_size_; }
  [[nodiscard]] WindowKind window() const { return window_; }

  /// Width of one bin in Hz.
  [[nodiscard]] double bin_hz() const;

  /// Bin index nearest to `freq_hz`. For two-sided spectra negative
  /// frequencies map to the upper half.
  [[nodiscard]] std::size_t bin_of(double freq_hz) const;

  /// Center frequency of bin `k` (negative for the upper half of a
  /// two-sided spectrum).
  [[nodiscard]] double freq_of(std::size_t k) const;

  /// Sum of bin powers over [f_lo, f_hi] (inclusive of boundary bins).
  [[nodiscard]] double band_power(double f_lo, double f_hi) const;

  /// Index of the strongest bin within [f_lo, f_hi].
  [[nodiscard]] std::size_t peak_bin(double f_lo, double f_hi) const;

  /// Total power of the tone nearest `freq_hz`: searches for the local
  /// peak within the window main lobe of the expected bin, then integrates
  /// the main lobe around the peak. Returns the power and the peak bin.
  struct TonePower {
    double power = 0.0;
    std::size_t peak_bin = 0;
  };
  [[nodiscard]] TonePower tone_power(double freq_hz) const;

  /// Half-width (bins) treated as belonging to a tone's main lobe.
  [[nodiscard]] std::size_t lobe_half_width() const { return lobe_half_width_; }

 private:
  Periodogram(double fs_hz, std::size_t fft_size, bool one_sided,
              WindowKind window);
  void fill_one_sided(std::span<const cplx> spec, double norm);
  void fill_two_sided(std::span<const cplx> spec, double norm);

  /// The one path behind the constructors and many_*: window, FFT and
  /// bin powers for `lanes` lane-major captures, sharded across `pool`.
  /// Real samples give one-sided spectra, complex samples two-sided ones.
  template <typename Sample>
  [[nodiscard]] static std::vector<Periodogram> transform(
      std::span<const Sample> signals, std::size_t lanes, double fs_hz,
      WindowKind window, par::ThreadPool& pool);

  /// Lanes [begin, end) of transform on one worker: `out` is sized and
  /// `plan` built by the caller, and `scratch` is this worker's alone.
  template <typename Sample, typename Plan>
  static void transform_lanes(std::size_t begin, std::size_t end,
                              std::span<const Sample> signals,
                              std::span<const double> w, double norm,
                              const Plan& plan, std::span<cplx> scratch,
                              std::span<Periodogram> out);

  std::vector<double> power_;
  double fs_ = 1.0;
  std::size_t fft_size_ = 0;
  bool one_sided_ = true;
  WindowKind window_ = WindowKind::kHann;
  std::size_t lobe_half_width_ = 3;
};

/// Result of an SNR measurement.
struct SnrResult {
  double snr_db = 0.0;         ///< 10*log10(signal/noise) within the band
  double signal_power = 0.0;   ///< integrated main-lobe signal power
  double noise_power = 0.0;    ///< integrated remaining in-band power
  double signal_freq_hz = 0.0; ///< frequency of the located signal peak
  bool signal_found = true;    ///< false if the expected tone is absent
};

/// In-band SNR of the tone expected at `f_signal` with the noise integrated
/// over [band_lo, band_hi] excluding the signal main lobe. This is the
/// paper's Fig. 7/9 measurement: band = F0 +/- fs/(4*OSR).
[[nodiscard]] SnrResult measure_snr(const Periodogram& p, double f_signal,
                                    double band_lo, double band_hi);

/// Convenience for sigma-delta captures: band centered on `f_center` with
/// total width fs/(2*osr).
[[nodiscard]] SnrResult measure_snr_osr(const Periodogram& p, double f_signal,
                                        double f_center, double osr);

/// Result of a two-tone SFDR measurement (paper Fig. 12).
struct SfdrResult {
  double sfdr_db = 0.0;          ///< fundamental - strongest spur (dB)
  double fundamental_power = 0.0;
  double spur_power = 0.0;
  double spur_freq_hz = 0.0;
  double im3_db = 0.0;           ///< fundamental - third-order product (dB)
};

/// SFDR of a two-tone capture with tones at f1, f2 within [band_lo,
/// band_hi]. The third-order intermodulation products are taken at
/// 2*f1 - f2 and 2*f2 - f1. The generic spur search covers every in-band
/// bin outside the tone main lobes.
[[nodiscard]] SfdrResult measure_sfdr_two_tone(const Periodogram& p, double f1,
                                               double f2, double band_lo,
                                               double band_hi);

/// Effective number of bits from an SNR measurement: (SNR - 1.76) / 6.02.
[[nodiscard]] double snr_to_enob(double snr_db);

}  // namespace analock::dsp
