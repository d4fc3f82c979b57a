#include "dsp/spectrum.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <map>
#include <type_traits>
#include <utility>

#include "dsp/fft_plan.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/units.h"

namespace analock::dsp {

namespace {

/// Energy normalization factor: divides |X[k]|^2 so that the bin powers sum
/// to the capture's mean-square value (Parseval with window compensation).
double energy_norm(std::span<const double> window) {
  double sum_sq = 0.0;
  for (const double w : window) sum_sq += w * w;
  return sum_sq * static_cast<double>(window.size());
}

/// A window and its energy normalization.
struct AnalysisWindow {
  WindowKind kind = WindowKind::kHann;
  std::vector<double> samples;
  double norm = 0.0;
};

/// Per-thread caches of analysis windows and plans: no shared mutable
/// state, so the metrology can run from pool workers without
/// synchronizing on a shared cache. Plans are immutable after
/// construction, and a window stays as it is until the thread's next
/// window_for call. A thread keeps the two windows it used last: that
/// covers a caller alternating two capture lengths (SNR and SFDR
/// screens) without keeping a window of every length it ever saw.
const AnalysisWindow& window_for(WindowKind kind, std::size_t n) {
  thread_local std::array<AnalysisWindow, 2> windows;  // [0]: last used
  for (std::size_t i = 0; i < windows.size(); ++i) {
    if (windows[i].kind == kind && windows[i].samples.size() == n) {
      std::swap(windows[0], windows[i]);
      return windows[0];
    }
  }
  std::swap(windows[0], windows[1]);
  windows[0] = {};  // the least recently used goes before the new one
  windows[0].kind = kind;
  windows[0].samples = make_window(kind, n);
  windows[0].norm = energy_norm(windows[0].samples);
  return windows[0];
}

const FftPlan& plan_for(std::size_t n) {
  thread_local std::map<std::size_t, FftPlan> plans;
  auto it = plans.find(n);
  if (it == plans.end()) it = plans.try_emplace(n, n).first;
  return it->second;
}

const RealFftPlan& real_plan_for(std::size_t n) {
  thread_local std::map<std::size_t, RealFftPlan> plans;
  auto it = plans.find(n);
  if (it == plans.end()) it = plans.try_emplace(n, n).first;
  return it->second;
}

/// The plan a Sample-typed capture transforms with: the packed real FFT
/// for real captures, the complex FFT for baseband ones.
template <typename Sample>
const auto& plan_for_samples(std::size_t n) {
  if constexpr (std::is_same_v<Sample, double>) {
    return real_plan_for(n);
  } else {
    return plan_for(n);
  }
}

}  // namespace

Periodogram::Periodogram(double fs_hz, std::size_t fft_size, bool one_sided,
                         WindowKind window)
    : fs_(fs_hz),
      fft_size_(fft_size),
      one_sided_(one_sided),
      window_(window),
      lobe_half_width_(main_lobe_half_width(window)) {}

void Periodogram::fill_one_sided(std::span<const cplx> spec, double norm) {
  // `spec` is the half spectrum X[0..N/2] of a real capture. Conjugate
  // symmetry makes the folded negative-frequency term exactly equal to
  // the positive one, so the legacy fold |X[k]|^2 + |X[N-k]|^2 becomes
  // the same addend twice.
  const std::size_t half = fft_size_ / 2;
  power_.assign(half + 1, 0.0);
  power_[0] = std::norm(spec[0]) / norm;
  power_[half] = std::norm(spec[half]) / norm;
  for (std::size_t k = 1; k < half; ++k) {
    power_[k] = (std::norm(spec[k]) + std::norm(spec[k])) / norm;
  }
}

void Periodogram::fill_two_sided(std::span<const cplx> spec, double norm) {
  power_.resize(fft_size_);
  for (std::size_t k = 0; k < fft_size_; ++k) {
    power_[k] = std::norm(spec[k]) / norm;
  }
}

template <typename Sample>
std::vector<Periodogram> Periodogram::transform(
    std::span<const Sample> signals, std::size_t lanes, double fs_hz,
    WindowKind window, par::ThreadPool& pool,
    const LaneReduction& reduce_lane, std::span<double> values) {
  constexpr bool kOneSided = std::is_same_v<Sample, double>;
  assert(lanes > 0 && signals.size() % lanes == 0);
  const std::size_t n = signals.size() / lanes;
  assert(is_power_of_two(n) && "capture length must be a power of two");
  assert(!reduce_lane || values.size() == lanes);
  const AnalysisWindow& analysis = window_for(window, n);
  const std::span<const double> w = analysis.samples;
  const double norm = analysis.norm;
  // Everything is sized here, on the caller: a buffer grown inside a pool
  // worker would land in that thread's malloc arena, which keeps the
  // pages. Each chunk of lanes gets its own scratch: the half spectrum
  // of a real capture, or the windowed copy that the FFT transforms in
  // place for a complex one.
  const std::size_t chunks = std::min(pool.size(), lanes);
  std::vector<Periodogram> out(reduce_lane ? chunks : lanes,
                               Periodogram(fs_hz, n, kOneSided, window));
  for (Periodogram& p : out) p.power_.resize(kOneSided ? n / 2 + 1 : n);
  const std::size_t per_chunk = kOneSided ? n / 2 + 1 : n;
  std::vector<cplx> scratch(chunks * per_chunk);
  const auto& plan = plan_for_samples<Sample>(n);
  // One chunk per worker at most, split here rather than by the pool, so
  // a chunk's scratch index is its own loop variable.
  pool.parallel_for(chunks, [&](std::size_t begin, std::size_t end) {
    for (std::size_t c = begin; c < end; ++c) {
      const std::size_t lo = c * lanes / chunks;
      const std::size_t hi = (c + 1) * lanes / chunks;
      transform_lanes(
          lo, hi, signals, w, norm, plan,
          std::span<cplx>(scratch).subspan(c * per_chunk, per_chunk),
          reduce_lane ? std::span<Periodogram>(out).subspan(c, 1)
                      : std::span<Periodogram>(out).subspan(lo, hi - lo),
          reduce_lane, values);
    }
  });
  return out;
}

template <typename Sample, typename Plan>
// analock: thread_safe parallel_region
void Periodogram::transform_lanes(std::size_t begin, std::size_t end,
                                  std::span<const Sample> signals,
                                  std::span<const double> w, double norm,
                                  const Plan& plan, std::span<cplx> scratch,
                                  std::span<Periodogram> out,
                                  const LaneReduction& reduce_lane,
                                  std::span<double> values) {
  const std::size_t n = w.size();
  for (std::size_t l = begin; l < end; ++l) {
    const auto x = signals.subspan(l * n, n);
    Periodogram& p = out[reduce_lane ? 0 : l - begin];
    if constexpr (std::is_same_v<Sample, double>) {
      plan.run(x, scratch, w);
      p.fill_one_sided(scratch, norm);
    } else {
      const std::span<cplx> xw = scratch;
      for (std::size_t i = 0; i < n; ++i) xw[i] = x[i] * w[i];
      plan.run(xw);
      p.fill_two_sided(xw, norm);
    }
    if (reduce_lane) values[l] = reduce_lane(p);
  }
}

Periodogram::Periodogram(std::span<const double> x, double fs_hz,
                         WindowKind window) {
  ANALOCK_SPAN_QUIET("dsp.periodogram");
  *this = std::move(
      transform(x, 1, fs_hz, window, par::ThreadPool::shared()).front());
}

Periodogram::Periodogram(std::span<const cplx> x, double fs_hz,
                         WindowKind window) {
  ANALOCK_SPAN_QUIET("dsp.periodogram");
  *this = std::move(
      transform(x, 1, fs_hz, window, par::ThreadPool::shared()).front());
}

std::vector<Periodogram> Periodogram::many_real(std::span<const double> signals,
                                                std::size_t lanes,
                                                double fs_hz,
                                                WindowKind window,
                                                par::ThreadPool& pool) {
  ANALOCK_SPAN_QUIET("dsp.periodogram.batch");
  obs::count("dsp.fft.points", signals.size());
  return transform(signals, lanes, fs_hz, window, pool);
}

std::vector<Periodogram> Periodogram::many_complex(
    std::span<const cplx> signals, std::size_t lanes, double fs_hz,
    WindowKind window, par::ThreadPool& pool) {
  ANALOCK_SPAN_QUIET("dsp.periodogram.batch");
  obs::count("dsp.fft.points", signals.size());
  return transform(signals, lanes, fs_hz, window, pool);
}

std::vector<double> Periodogram::reduced_real(std::span<const double> signals,
                                              std::size_t lanes, double fs_hz,
                                              const LaneReduction& reduce_lane,
                                              WindowKind window,
                                              par::ThreadPool& pool) {
  ANALOCK_SPAN_QUIET("dsp.periodogram.batch");
  obs::count("dsp.fft.points", signals.size());
  std::vector<double> values(lanes);
  (void)transform(signals, lanes, fs_hz, window, pool, reduce_lane, values);
  return values;
}

std::vector<double> Periodogram::reduced_complex(
    std::span<const cplx> signals, std::size_t lanes, double fs_hz,
    const LaneReduction& reduce_lane, WindowKind window,
    par::ThreadPool& pool) {
  ANALOCK_SPAN_QUIET("dsp.periodogram.batch");
  obs::count("dsp.fft.points", signals.size());
  std::vector<double> values(lanes);
  (void)transform(signals, lanes, fs_hz, window, pool, reduce_lane, values);
  return values;
}

double Periodogram::bin_hz() const {
  return fs_ / static_cast<double>(fft_size_);
}

std::size_t Periodogram::bin_of(double freq_hz) const {
  double f = freq_hz;
  if (!one_sided_ && f < 0.0) f += fs_;
  const auto k = static_cast<std::size_t>(std::llround(f / bin_hz()));
  return std::min(k, power_.size() - 1);
}

double Periodogram::freq_of(std::size_t k) const {
  const double f = static_cast<double>(k) * bin_hz();
  if (!one_sided_ && k > fft_size_ / 2) return f - fs_;
  return f;
}

double Periodogram::band_power(double f_lo, double f_hi) const {
  assert(f_lo <= f_hi);
  const std::size_t k_lo = bin_of(f_lo);
  const std::size_t k_hi = bin_of(f_hi);
  double acc = 0.0;
  if (!one_sided_ && k_lo > k_hi) {
    // Band straddles DC in a two-sided spectrum (wraps through bin 0).
    for (std::size_t k = k_lo; k < power_.size(); ++k) acc += power_[k];
    for (std::size_t k = 0; k <= k_hi; ++k) acc += power_[k];
    return acc;
  }
  for (std::size_t k = k_lo; k <= k_hi; ++k) acc += power_[k];
  return acc;
}

std::size_t Periodogram::peak_bin(double f_lo, double f_hi) const {
  const std::size_t k_lo = bin_of(f_lo);
  const std::size_t k_hi = bin_of(f_hi);
  std::size_t best = k_lo;
  double best_power = -1.0;
  auto visit = [&](std::size_t k) {
    if (power_[k] > best_power) {
      best_power = power_[k];
      best = k;
    }
  };
  if (!one_sided_ && k_lo > k_hi) {
    for (std::size_t k = k_lo; k < power_.size(); ++k) visit(k);
    for (std::size_t k = 0; k <= k_hi; ++k) visit(k);
  } else {
    for (std::size_t k = k_lo; k <= k_hi; ++k) visit(k);
  }
  return best;
}

Periodogram::TonePower Periodogram::tone_power(double freq_hz) const {
  const std::size_t k_expected = bin_of(freq_hz);
  const std::size_t hw = lobe_half_width_;
  // The tone may land a bin or two off the expected position (finite bin
  // granularity, tank detuning); search a small neighborhood for the peak.
  const std::size_t search = hw;
  std::size_t k_peak = k_expected;
  double peak = -1.0;
  for (std::size_t d = 0; d <= 2 * search; ++d) {
    const std::size_t k =
        std::min(power_.size() - 1,
                 std::max<std::size_t>(
                     0, k_expected + d >= search ? k_expected + d - search : 0));
    if (power_[k] > peak) {
      peak = power_[k];
      k_peak = k;
    }
  }
  double acc = 0.0;
  const std::size_t lo = k_peak >= hw ? k_peak - hw : 0;
  const std::size_t hi = std::min(power_.size() - 1, k_peak + hw);
  for (std::size_t k = lo; k <= hi; ++k) acc += power_[k];
  return {acc, k_peak};
}

SnrResult measure_snr(const Periodogram& p, double f_signal, double band_lo,
                      double band_hi) {
  ANALOCK_SPAN_QUIET("dsp.measure_snr");
  SnrResult result;
  const auto tone = p.tone_power(f_signal);
  result.signal_power = tone.power;
  result.signal_freq_hz = p.freq_of(tone.peak_bin);

  const double total_band = p.band_power(band_lo, band_hi);
  // Portion of the signal main lobe that lies inside the band.
  const std::size_t hw = p.lobe_half_width();
  double lobe_in_band = 0.0;
  for (std::size_t k = tone.peak_bin >= hw ? tone.peak_bin - hw : 0;
       k <= std::min(p.size() - 1, tone.peak_bin + hw); ++k) {
    const double f = p.freq_of(k);
    if (f >= band_lo && f <= band_hi) lobe_in_band += p.power()[k];
  }
  result.noise_power = std::max(0.0, total_band - lobe_in_band);

  // The tone must actually be a peak: if the located "signal" is not above
  // the average in-band level, the input tone is buried.
  const double bins_in_band =
      std::max(1.0, (band_hi - band_lo) / p.bin_hz());
  const double avg_bin = total_band / bins_in_band;
  result.signal_found = tone.power > 2.0 * avg_bin * static_cast<double>(2 * hw + 1);

  if (result.signal_power <= 0.0) {
    // No signal at all (e.g. a muxed-off or frozen output): locked hard.
    result.snr_db = -200.0;
    result.signal_found = false;
  } else if (result.noise_power <= 0.0) {
    result.snr_db = 200.0;  // noiseless capture: report a ceiling
  } else {
    result.snr_db = sim::to_db(result.signal_power / result.noise_power);
  }
  return result;
}

SnrResult measure_snr_osr(const Periodogram& p, double f_signal,
                          double f_center, double osr) {
  const double half_band = p.fs() / (4.0 * osr);
  return measure_snr(p, f_signal, f_center - half_band, f_center + half_band);
}

SfdrResult measure_sfdr_two_tone(const Periodogram& p, double f1, double f2,
                                 double band_lo, double band_hi) {
  ANALOCK_SPAN_QUIET("dsp.measure_sfdr");
  SfdrResult result;
  const auto t1 = p.tone_power(f1);
  const auto t2 = p.tone_power(f2);
  result.fundamental_power = std::max(t1.power, t2.power);

  // Third-order intermodulation products.
  const double im3_lo = 2.0 * f1 - f2;
  const double im3_hi = 2.0 * f2 - f1;
  const auto p3a = p.tone_power(im3_lo);
  const auto p3b = p.tone_power(im3_hi);
  const double im3_power = std::max(p3a.power, p3b.power);
  result.im3_db =
      im3_power > 0.0 && result.fundamental_power > 0.0
          ? sim::to_db(result.fundamental_power / im3_power)
          : 200.0;

  // Generic spur search: strongest in-band bin outside the tone lobes.
  const std::size_t hw = p.lobe_half_width();
  auto in_lobe = [&](std::size_t k, std::size_t center) {
    return k + hw >= center && k <= center + hw;
  };
  const std::size_t k_lo = p.bin_of(band_lo);
  const std::size_t k_hi = p.bin_of(band_hi);
  double spur = 0.0;
  std::size_t spur_bin = k_lo;
  for (std::size_t k = k_lo; k <= k_hi && k < p.size(); ++k) {
    if (in_lobe(k, t1.peak_bin) || in_lobe(k, t2.peak_bin)) continue;
    if (p.power()[k] > spur) {
      spur = p.power()[k];
      spur_bin = k;
    }
  }
  // Integrate the spur's main lobe for a fair comparison against the
  // lobe-integrated fundamental and IM3 powers.
  double spur_total = 0.0;
  const std::size_t s_lo = spur_bin >= hw ? spur_bin - hw : 0;
  const std::size_t s_hi = std::min(p.size() - 1, spur_bin + hw);
  for (std::size_t k = s_lo; k <= s_hi; ++k) spur_total += p.power()[k];
  result.spur_power = spur_total;
  result.spur_freq_hz = p.freq_of(spur_bin);
  result.sfdr_db = spur_total > 0.0 && result.fundamental_power > 0.0
                       ? sim::to_db(result.fundamental_power / spur_total)
                       : 200.0;
  return result;
}

double snr_to_enob(double snr_db) { return (snr_db - 1.76) / 6.02; }

}  // namespace analock::dsp
