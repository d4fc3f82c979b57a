// FIR filter design (windowed sinc) and streaming/decimating application.
//
// The receiver's digital decimation chain (paper Fig. 4) is built from the
// CIC stage in dsp/cic.h followed by compensating/half-band FIR stages
// implemented here.
#pragma once

#include <complex>
#include <cstddef>
#include <span>
#include <vector>

#include "dsp/window.h"

namespace analock::dsp {

/// Linear-phase lowpass by the windowed-sinc method.
/// `cutoff_norm` is the -6 dB cutoff as a fraction of the sample rate
/// (0 < cutoff_norm < 0.5). `taps` must be odd for a symmetric type-I FIR.
[[nodiscard]] std::vector<double> design_lowpass(double cutoff_norm,
                                                 std::size_t taps,
                                                 WindowKind window =
                                                     WindowKind::kBlackman);

/// Half-band lowpass (cutoff 0.25) with every second tap zero except the
/// center; suited to decimate-by-2 stages. `taps` must be of form 4k+3.
[[nodiscard]] std::vector<double> design_halfband(std::size_t taps,
                                                  WindowKind window =
                                                      WindowKind::kBlackman);

/// Magnitude response of an FIR at normalized frequency f (cycles/sample).
[[nodiscard]] double fir_magnitude(std::span<const double> taps, double f_norm);

/// Streaming FIR with internal state, usable sample-by-sample.
template <typename Sample>
class Fir {
 public:
  explicit Fir(std::vector<double> taps)
      : taps_(std::move(taps)), history_(taps_.size(), Sample{}) {}

  [[nodiscard]] const std::vector<double>& taps() const { return taps_; }

  Sample process(Sample x) {
    history_[pos_] = x;
    Sample acc{};
    std::size_t idx = pos_;
    for (const double t : taps_) {
      acc += history_[idx] * t;
      idx = (idx == 0) ? history_.size() - 1 : idx - 1;
    }
    pos_ = (pos_ + 1) % history_.size();
    return acc;
  }

  void reset() {
    std::fill(history_.begin(), history_.end(), Sample{});
    pos_ = 0;
  }

 private:
  std::vector<double> taps_;
  std::vector<Sample> history_;
  std::size_t pos_ = 0;
};

/// Decimating FIR: filters and keeps one output per `factor` inputs.
/// Computes the dot product only on retained samples (polyphase-equivalent
/// work for this usage).
template <typename Sample>
class DecimatingFir {
 public:
  DecimatingFir(std::vector<double> taps, std::size_t factor)
      : fir_(std::move(taps)), factor_(factor) {}

  [[nodiscard]] std::size_t factor() const { return factor_; }

  /// Feeds one input; returns true and writes `out` when an output fires.
  bool push(Sample x, Sample& out) {
    // History must advance every input sample; the dot product is only
    // needed on decimated instants, so track the phase explicitly.
    history_.push_back(x);
    if (history_.size() > fir_.taps().size()) history_.erase(history_.begin());
    if (++phase_ < factor_) return false;
    phase_ = 0;
    Sample acc{};
    const auto& taps = fir_.taps();
    const std::size_t n = history_.size();
    for (std::size_t i = 0; i < n; ++i) {
      acc += history_[n - 1 - i] * taps[i];
    }
    out = acc;
    return true;
  }

  /// Filters and decimates a whole block.
  [[nodiscard]] std::vector<Sample> process(std::span<const Sample> in) {
    std::vector<Sample> out;
    out.reserve(in.size() / factor_ + 1);
    Sample y{};
    for (const Sample& x : in) {
      if (push(x, y)) out.push_back(y);
    }
    return out;
  }

  void reset() {
    history_.clear();
    phase_ = 0;
  }

 private:
  Fir<Sample> fir_;
  std::size_t factor_;
  std::vector<Sample> history_;
  std::size_t phase_ = 0;
};

}  // namespace analock::dsp
