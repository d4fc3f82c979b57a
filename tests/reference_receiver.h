// Scalar reference of the receiver's time domain: the chip one sample at
// a time, block by block, with its own noise sources, block state and
// digital chain. rf::ReceiverBatch is the product stepper; the parity
// tests, reference_oracle.h and the bench_batch_eval gate compare it
// against this one bit for bit.
//
// Every constant comes from rf::lane_constants, and the per-sample
// arithmetic is the kernels the batch also calls (Vglna::Stage::process,
// cubic_soft, Resonator::advance, soft_rail). Everything else here is
// independent of the batch: the noise draws sample by sample from the
// chip's named streams, the loop keeps its state in the blocks, and the
// backend decimates through generic CIC and FIR classes.
// Since the two steppers share the map, the map itself is pinned by
// LaneConstants.DigestsArePinned.
#pragma once

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "dsp/fir.h"
#include "rf/lane_constants.h"
#include "rf/receiver.h"
#include "rf/standards.h"
#include "sim/process.h"
#include "sim/rng.h"

namespace analock::reference {

/// Additive white Gaussian noise with a fixed RMS level per sample; an
/// RMS of zero draws nothing.
class GaussianNoise {
 public:
  GaussianNoise(sim::Rng rng, double rms) : rng_(rng), rms_(rms) {}

  void set_rms(double rms) { rms_ = rms; }

  /// Next noise sample.
  double operator()() { return rms_ == 0.0 ? 0.0 : rng_.gaussian(0.0, rms_); }

 private:
  sim::Rng rng_;
  double rms_;
};

/// N-stage cascaded integrator-comb decimator with differential delay 1.
/// DC gain is R^N; outputs are normalized back to unity.
template <typename Sample>
class CicDecimator {
 public:
  CicDecimator(std::size_t stages, std::size_t factor)
      : factor_(factor),
        integrators_(stages, Sample{}),
        combs_(stages, Sample{}) {
    for (std::size_t i = 0; i < stages; ++i) {
      gain_ *= static_cast<double>(factor);
    }
  }

  /// Feeds one input sample; returns true and fills `out` when a decimated
  /// output is produced.
  bool push(Sample x, Sample& out) {
    Sample acc = x;
    for (auto& integ : integrators_) {
      integ += acc;
      acc = integ;
    }
    if (++phase_ < factor_) return false;
    phase_ = 0;
    for (auto& comb : combs_) {
      const Sample prev = comb;
      comb = acc;
      acc = acc - prev;
    }
    out = acc * (1.0 / gain_);
    return true;
  }

  /// Decimates a whole block.
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
    std::fill(integrators_.begin(), integrators_.end(), Sample{});
    std::fill(combs_.begin(), combs_.end(), Sample{});
    phase_ = 0;
  }

 private:
  std::size_t factor_;
  std::vector<Sample> integrators_;
  std::vector<Sample> combs_;
  std::size_t phase_ = 0;
  double gain_ = 1.0;
};

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

/// fs/4 down-converter: y[n] = x[n] * e^{-j pi n / 2}. The LO samples are
/// exactly representable, so the mixer is lossless.
class QuarterRateMixer {
 public:
  /// Mixes one real sample to complex baseband.
  std::complex<double> mix(double x) {
    std::complex<double> y;
    switch (phase_) {
      case 0: y = {x, 0.0}; break;
      case 1: y = {0.0, -x}; break;
      case 2: y = {-x, 0.0}; break;
      default: y = {0.0, x}; break;
    }
    phase_ = (phase_ + 1) & 3u;
    return y;
  }

  /// Mixes a block.
  [[nodiscard]] std::vector<std::complex<double>> process(
      std::span<const double> in) {
    std::vector<std::complex<double>> out;
    out.reserve(in.size());
    for (const double x : in) out.push_back(mix(x));
    return out;
  }

  void reset() { phase_ = 0; }

 private:
  unsigned phase_ = 0;
};

/// VGLNA: input noise, then the five identical gain stages.
class Vglna {
 public:
  explicit Vglna(const sim::Rng& rng) : noise_(rng.fork("vglna-noise"), 0.0) {}

  void configure(const rf::LaneConstants& k) {
    stage_ = k.front_end.vglna_stage;
    noise_.set_rms(k.front_end.vglna_rms);
  }

  /// Amplifies one input sample (volts in, volts out).
  double process(double x) {
    double y = x + noise_();
    for (unsigned s = 0; s < rf::Vglna::kNumStages; ++s) y = stage_.process(y);
    return y;
  }

 private:
  GaussianNoise noise_;
  rf::Vglna::Stage stage_;
};

/// Input transconductor Gmin; disabled, it outputs 0 and draws no noise.
class Transconductor {
 public:
  explicit Transconductor(const sim::Rng& rng)
      : noise_(rng.fork("gmin-noise"), 0.0) {}

  void configure(const rf::LaneConstants& k) {
    front_end_ = k.front_end;
    enabled_ = k.gmin_enable;
    noise_.set_rms(front_end_.gm_rms);
  }

  /// One sample: voltage in, normalized loop signal out.
  double process(double v) {
    if (!enabled_) return 0.0;
    return front_end_.gm * rf::cubic_soft(v, front_end_.gm_iip3) + noise_();
  }

 private:
  GaussianNoise noise_;
  rf::LaneConstants::FrontEnd front_end_;
  bool enabled_ = true;
};

class PreAmplifier {
 public:
  explicit PreAmplifier(const sim::Rng& rng)
      : noise_(rng.fork("preamp-noise"), 0.0) {}

  void configure(const rf::LaneConstants& k) {
    gain_ = k.preamp_gain;
    noise_.set_rms(k.preamp_rms);
  }

  double process(double x) {
    const double y = gain_ * x + noise_();
    return std::clamp(y, -rf::PreAmplifier::kRail, rf::PreAmplifier::kRail);
  }

 private:
  GaussianNoise noise_;
  double gain_ = 0.0;
};

/// Clocked: one +/-1 decision per sample; un-clocked: a saturating
/// analog buffer.
class Comparator {
 public:
  explicit Comparator(const sim::Rng& rng)
      : noise_(rng.fork("comparator-noise"), 0.0) {}

  void configure(const rf::LaneConstants& k) {
    offset_ = k.comp_offset;
    clocked_ = k.comp_clock_enable;
    noise_.set_rms(k.comp_rms);
  }

  double process(double x) {
    const double v = x + offset_ + noise_();
    if (clocked_) return v >= 0.0 ? 1.0 : -1.0;
    return rf::Comparator::kBufferRail * std::tanh(v);
  }

 private:
  GaussianNoise noise_;
  double offset_ = 0.0;
  bool clocked_ = true;
};

class FeedbackDac {
 public:
  explicit FeedbackDac(const sim::Rng& rng)
      : noise_(rng.fork("dac-noise"), 0.0) {}

  void configure(const rf::LaneConstants& k) {
    level_plus_ = k.dac_plus;
    level_minus_ = k.dac_minus;
    noise_.set_rms(k.dac_rms);
  }

  /// Converts one (analog or digital) comparator sample to the feedback
  /// waveform value: the DAC input is a logic gate that re-slices it.
  double convert(double comparator_out) {
    return (comparator_out >= 0.0 ? level_plus_ : level_minus_) + noise_();
  }

 private:
  GaussianNoise noise_;
  double level_plus_ = 1.0;
  double level_minus_ = -1.0;
};

class FractionalDelayLine {
 public:
  static constexpr std::size_t kDepth = rf::FractionalDelayLine::kDepth;

  void set_delay(double samples) { delay_ = samples; }

  void push(double x) {
    pos_ = (pos_ + 1) % kDepth;
    buf_[pos_] = x;
  }

  /// Linearly interpolated sample `delay` samples in the past (relative
  /// to the most recent push).
  [[nodiscard]] double read() const {
    const double d = std::clamp(delay_, 0.0, static_cast<double>(kDepth - 2));
    const auto whole = static_cast<std::size_t>(d);
    const double frac = d - static_cast<double>(whole);
    const std::size_t i0 = (pos_ + kDepth - whole) % kDepth;
    const std::size_t i1 = (pos_ + kDepth - whole - 1) % kDepth;
    return (1.0 - frac) * buf_[i0] + frac * buf_[i1];
  }

  void reset() {
    for (auto& x : buf_) x = 0.0;
    pos_ = 0;
  }

 private:
  double delay_ = 0.0;
  double buf_[kDepth] = {};
  std::size_t pos_ = 0;
};

class OutputBuffer {
 public:
  explicit OutputBuffer(const sim::Rng& rng)
      : noise_(rng.fork("buffer-noise"), 0.0) {}

  void configure(const rf::LaneConstants& k) {
    gain_ = k.buffer_gain;
    noise_.set_rms(k.buffer_rms);
  }

  double process(double x) {
    const double y = gain_ * x + noise_();
    return std::clamp(y, -rf::OutputBuffer::kRail, rf::OutputBuffer::kRail);
  }

 private:
  GaussianNoise noise_;
  double gain_ = 1.0;
};

/// Two-pole resonator state stepped by rf::Resonator::advance.
class Resonator {
 public:
  void configure(double cos_theta, double r) {
    cos_theta_ = cos_theta;
    r_ = r;
  }

  /// Advances one sample with input x; returns the new state s[n].
  double step(double x) {
    return rf::Resonator::advance(s1_, s2_, cos_theta_, r_, x);
  }

  [[nodiscard]] double state() const { return s1_; }

  void reset() {
    s1_ = 0.0;
    s2_ = 0.0;
  }

 private:
  double cos_theta_ = 0.0;
  double r_ = 0.0;
  double s1_ = 0.0;  ///< s[n-1]
  double s2_ = 0.0;  ///< s[n-2]
};

/// The BP sigma-delta loop of rf/bp_sigma_delta.h, one sample per step.
class BpSigmaDelta {
 public:
  BpSigmaDelta(const rf::Standard& standard,
               const sim::ProcessVariation& process, const sim::Rng& rng)
      : standard_(&standard),
        process_(process),
        gmin_(rng.fork("sd-gmin")),
        preamp_(rng.fork("sd-preamp")),
        comparator_(rng.fork("sd-comparator")),
        dac_(rng.fork("sd-dac")),
        buffer_(rng.fork("sd-buffer")),
        tank_noise1_(rng.fork("sd-tank1"), rf::kTankNoiseRms),
        tank_noise2_(rng.fork("sd-tank2"), rf::kTankNoiseRms) {
    configure(rf::ModulatorConfig{});
  }

  void configure(const rf::ModulatorConfig& config) {
    config_ = config;
    rf::ReceiverConfig receiver;
    receiver.modulator = config;
    const rf::LaneConstants k =
        rf::lane_constants(*standard_, process_, receiver);
    gmin_.configure(k);
    res1_.configure(k.res1_cos, k.res1_radius);
    res2_.configure(k.res2_cos, k.res2_radius);
    preamp_.configure(k);
    comparator_.configure(k);
    dac_.configure(k);
    delay_.set_delay(k.delay_samples);
    buffer_.configure(k);
  }
  [[nodiscard]] const rf::ModulatorConfig& config() const { return config_; }

  /// Advances one sample with RF input voltage `v_rf`; returns the
  /// modulator output.
  double step(double v_rf) {
    const double u = gmin_.process(v_rf);
    // Feedback sample: DAC output delayed ~2 samples total (1 structural
    // + the fractional line).
    const double fb = config_.feedback_enable ? delay_.read() : 0.0;
    const double s1 = res1_.step(-(u_hist_[1] - fb) + tank_noise1_());
    const double s2 = res2_.step(-(s1_hist_[1] - 2.0 * fb) + tank_noise2_());
    u_hist_[1] = u_hist_[0];
    u_hist_[0] = u;
    s1_hist_[1] = s1_hist_[0];
    s1_hist_[0] = s1;

    const double pre = preamp_.process(s2);
    const double y = comparator_.process(pre);
    // The DAC drives the delay line whether or not the loop is closed.
    delay_.push(dac_.convert(y));

    double out = y;
    switch (config_.test_mux) {
      case 1:
        out = rf::Comparator::kBufferRail * (s1 / rf::Resonator::kStateRail);
        break;
      case 2:
        out = rf::Comparator::kBufferRail * (pre / rf::PreAmplifier::kRail);
        break;
      case 3: out = 0.0; break;
      default: break;
    }
    if (config_.buffer_in_path) out = buffer_.process(out);
    return out;
  }

  /// Resonator 2's state s[n] (the free-running tank in oscillation mode).
  [[nodiscard]] double resonator2_state() const { return res2_.state(); }

  /// Clears the dynamic state; the noise streams carry on.
  void reset() {
    res1_.reset();
    res2_.reset();
    delay_.reset();
    u_hist_[0] = u_hist_[1] = 0.0;
    s1_hist_[0] = s1_hist_[1] = 0.0;
  }

 private:
  const rf::Standard* standard_;
  sim::ProcessVariation process_;
  rf::ModulatorConfig config_{};
  Resonator res1_;
  Resonator res2_;
  Transconductor gmin_;
  PreAmplifier preamp_;
  Comparator comparator_;
  FeedbackDac dac_;
  FractionalDelayLine delay_;
  OutputBuffer buffer_;
  GaussianNoise tank_noise1_;
  GaussianNoise tank_noise2_;
  // Structural z^-2 histories of the resonator inputs.
  double u_hist_[2] = {0.0, 0.0};
  double s1_hist_[2] = {0.0, 0.0};
};

/// Complex baseband capture produced by the digital backend.
struct BasebandCapture {
  std::vector<std::complex<double>> samples;
  double fs_hz = 0.0;  ///< decimated (output) sample rate
};

/// Schmitt slicer, fs/4 mixer, CIC, two half-bands and the channel FIR.
class DigitalBackend {
 public:
  DigitalBackend(double fs_hz, std::uint32_t digital_mode)
      : fs_hz_(fs_hz),
        mode_(digital_mode & 7u),
        cic_(rf::DigitalBackend::kCicStages, rf::DigitalBackend::kCicFactor),
        hb1_(dsp::design_halfband(23), 2),
        hb2_(dsp::design_halfband(23), 2),
        channel_(rf::DigitalBackend::channel_taps_for_mode(digital_mode)) {}

  [[nodiscard]] double output_rate_hz() const {
    return fs_hz_ / static_cast<double>(rf::DigitalBackend::kTotalDecimation);
  }
  [[nodiscard]] std::uint32_t digital_mode() const { return mode_; }

  /// Feeds one modulator output sample; returns true and fills `out` when
  /// a baseband sample is produced.
  bool push(double modulator_sample, std::complex<double>& out) {
    // Sub-threshold swings hold the previous level.
    if (modulator_sample > rf::DigitalBackend::kLogicVih) {
      slicer_state_ = 1.0;
    } else if (modulator_sample < rf::DigitalBackend::kLogicVil) {
      slicer_state_ = -1.0;
    }
    const std::complex<double> bb = mixer_.mix(slicer_state_);
    std::complex<double> y;
    if (!cic_.push(bb, y)) return false;
    std::complex<double> z;
    if (!hb1_.push(y, z)) return false;
    std::complex<double> w;
    if (!hb2_.push(z, w)) return false;
    out = channel_.process(w);
    return true;
  }

  /// Processes a whole modulator capture, discarding `settle_out` leading
  /// baseband samples (filter fill-in).
  [[nodiscard]] BasebandCapture process(std::span<const double> modulator,
                                        std::size_t settle_out = 0) {
    BasebandCapture capture;
    capture.fs_hz = output_rate_hz();
    std::complex<double> y;
    std::size_t produced = 0;
    for (const double x : modulator) {
      if (push(x, y)) {
        if (produced >= settle_out) capture.samples.push_back(y);
        ++produced;
      }
    }
    return capture;
  }

  void reset() {
    slicer_state_ = -1.0;
    mixer_.reset();
    cic_.reset();
    hb1_.reset();
    hb2_.reset();
    channel_.reset();
  }

 private:
  double fs_hz_;
  std::uint32_t mode_;
  double slicer_state_ = -1.0;
  QuarterRateMixer mixer_;
  CicDecimator<std::complex<double>> cic_;
  DecimatingFir<std::complex<double>> hb1_;
  DecimatingFir<std::complex<double>> hb2_;
  Fir<std::complex<double>> channel_;
};

/// One modulator capture.
struct ModulatorCapture {
  std::vector<double> output;
  double fs_hz = 0.0;
};

/// Output of a full-receiver capture.
struct ReceiverCapture {
  ModulatorCapture modulator;
  BasebandCapture baseband;
};

/// The whole chip: VGLNA -> modulator -> digital backend. Built from the
/// RNG an rf::ReceiverBatch of the same chip gets, its k-th capture after
/// configure and reset equals that batch lane's k-th capture.
class Receiver {
 public:
  Receiver(const rf::Standard& standard, const sim::ProcessVariation& process,
           const sim::Rng& rng)
      : standard_(&standard),
        process_(process),
        vglna_(rng.fork("receiver-vglna")),
        modulator_(standard, process, rng.fork("receiver-modulator")),
        backend_(standard.fs_hz(), standard.digital_mode) {
    configure(rf::ReceiverConfig{});
  }

  void configure(const rf::ReceiverConfig& config) {
    config_ = config;
    vglna_.configure(rf::lane_constants(*standard_, process_, config));
    modulator_.configure(config.modulator);
    if (config.digital_mode != backend_.digital_mode()) {
      backend_ = DigitalBackend(standard_->fs_hz(), config.digital_mode);
    }
  }
  [[nodiscard]] const rf::ReceiverConfig& config() const { return config_; }

  [[nodiscard]] const rf::Standard& standard() const { return *standard_; }
  [[nodiscard]] double fs_hz() const { return standard_->fs_hz(); }
  [[nodiscard]] const BpSigmaDelta& modulator() const { return modulator_; }

  /// One analog-path sample: antenna voltage in, modulator output out.
  double step_analog(double v_rf) {
    return modulator_.step(vglna_.process(v_rf));
  }

  /// Captures the modulator output after `settle` samples of `input`.
  [[nodiscard]] ModulatorCapture capture_modulator(
      std::span<const double> input, std::size_t settle = rf::kSettleSamples) {
    ModulatorCapture capture;
    capture.fs_hz = fs_hz();
    capture.output.reserve(input.size() > settle ? input.size() - settle : 0);
    for (std::size_t i = 0; i < input.size(); ++i) {
      const double y = step_analog(input[i]);
      if (i >= settle) capture.output.push_back(y);
    }
    return capture;
  }

  /// Runs the full receive chain; `settle_baseband` leading baseband
  /// samples are discarded on top of the analog settle time.
  [[nodiscard]] ReceiverCapture capture_receiver(
      std::span<const double> input, std::size_t settle = rf::kSettleSamples,
      std::size_t settle_baseband = 16) {
    ReceiverCapture capture;
    capture.modulator.fs_hz = fs_hz();
    capture.baseband.fs_hz = backend_.output_rate_hz();
    std::complex<double> bb;
    std::size_t produced = 0;
    for (std::size_t i = 0; i < input.size(); ++i) {
      const double y = step_analog(input[i]);
      if (i < settle) continue;
      capture.modulator.output.push_back(y);
      if (backend_.push(y, bb)) {
        if (produced >= settle_baseband) capture.baseband.samples.push_back(bb);
        ++produced;
      }
    }
    return capture;
  }

  /// Resets dynamic state (filters, resonators) without touching the
  /// configuration or the noise streams.
  void reset() {
    modulator_.reset();
    backend_.reset();
  }

 private:
  const rf::Standard* standard_;
  sim::ProcessVariation process_;
  rf::ReceiverConfig config_{};
  Vglna vglna_;
  BpSigmaDelta modulator_;
  DigitalBackend backend_;
};

}  // namespace analock::reference
