// rx_near: full homogeneous receiver batches near a valid key, the
// traffic calibration, GA and warm start issue once they are batched.
// Operation b evaluates 32 keys with BatchEvaluator::snr_receiver_db:
// lane 0 is the calibrated key of the set-up chip, lanes 1-31 flip 1-3
// distinct random tuning bits (bits 0-57) of it, drawn from
// Rng(seed).fork("e2e.rx_near", b), so the mode bits stay intact. Each
// lane runs the longest transient (receiver_input_length samples plus the
// digital backend).
//
// The traced form decomposes the batch through the public calls that
// BatchEvaluator makes and must reproduce its values bit for bit.
#include <bit>
#include <cmath>
#include <complex>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>

#include "calib/calibrator.h"
#include "dsp/spectrum.h"
#include "e2e.h"
#include "lock/batch_evaluator.h"
#include "lock/evaluator.h"
#include "lock/key_layout.h"
#include "par/thread_pool.h"
#include "rf/receiver.h"
#include "rf/receiver_batch.h"
#include "rf/standards.h"

namespace analock::e2e {

namespace {

constexpr std::size_t kBatches = 192;
constexpr std::size_t kSmokeBatches = 2;
constexpr std::size_t kLanes = 32;
constexpr std::uint64_t kMaxChip = 8;
constexpr std::uint64_t kTuningBits = 58;  // bits 58-63 are mode bits
/// Leading baseband outputs BatchEvaluator drops before the FFT window.
constexpr std::size_t kSettleBaseband = 16;

struct CalibratedChip {
  std::uint64_t id = 0;
  sim::ProcessVariation pv;
  sim::Rng rng;
  calib::CalibrationResult cal;
};

/// The first chip id of the seed that calibrates successfully.
CalibratedChip calibrate_first_chip(const rf::Standard& standard,
                                    std::uint64_t seed) {
  const sim::Rng master(seed);
  for (std::uint64_t id = 0; id < kMaxChip; ++id) {
    CalibratedChip chip{id, sim::ProcessVariation::monte_carlo(master, id),
                        master.fork("chip", id), {}};
    chip.cal = calib::Calibrator(standard, chip.pv, chip.rng).run();
    if (chip.cal.success) return chip;
  }
  throw std::runtime_error("no chip of this seed calibrates");
}

class RxNear final : public Workload {
 public:
  explicit RxNear(const Config& config)
      : standard_(rf::standard_max_3ghz()),
        seed_(config.seed),
        chip_(calibrate_first_chip(standard_, config.seed)),
        evaluator_(standard_, chip_.pv, chip_.rng),
        batch_(evaluator_),
        batches_(config.smoke ? kSmokeBatches : kBatches) {}

  std::size_t inputs() const override { return batches_; }
  std::string variant() const override {
    return "rx_near/" + std::to_string(kLanes);
  }
  std::string sizes_json() const override {
    return "{\"batches\":" + std::to_string(batches_) +
           ",\"lanes\":" + std::to_string(kLanes) +
           ",\"chip\":" + std::to_string(chip_.id) + "}";
  }

  OpResult run(std::size_t input, SpanLog* trace) override {
    OpResult result;
    const std::vector<lock::Key64> keys = make_keys(input);
    std::vector<double> snr;
    {
      const OpScope op(trace, "rx_near.batch", result);
      snr = trace == nullptr ? batch_.snr_receiver_db(keys)
                             : decomposed_snr(keys, *trace);
    }

    Digest digest;
    for (const double v : snr) digest.add(v);
    result.digest = digest.hex();
    result.work = static_cast<double>(keys.size());

    const std::string batch_id = "batch " + std::to_string(input);
    if (snr.size() != keys.size()) {
      result.errors.push_back(batch_id + ": wrong number of results");
      return result;
    }
    for (const double v : snr) {
      if (!std::isfinite(v)) {
        result.errors.push_back(batch_id + ": non-finite SNR");
        break;
      }
    }
    // Lane 0 is the calibrated key: it must meet spec and read exactly
    // what the calibrator's characterization measured.
    if (snr[0] < standard_.spec.min_snr_db ||
        snr[0] != chip_.cal.snr_receiver_db) {
      result.errors.push_back(batch_id + ": calibrated lane reads " +
                              std::to_string(snr[0]) + " dB");
    }
    if (trace != nullptr) {
      std::vector<std::uint64_t> bits;
      for (const auto& key : keys) bits.push_back(key.bits());
      traced_groups_ += static_cast<double>(signature_groups(bits));
      for (const double v : snr) {
        if (v >= standard_.spec.min_snr_db) traced_pass_ += 1.0;
      }
    }
    return result;
  }

  std::map<std::string, double> layers(const TraceSummary& t) const override {
    const auto& s = t.spans;
    const double ops = static_cast<double>(t.ops);
    const lock::EvaluatorOptions& eo = evaluator_.options();
    const double lanes = ops * static_cast<double>(kLanes);
    const double lane_samples =
        lanes * static_cast<double>(
                    rf::receiver_input_length(eo.baseband_points, eo.settle));
    const double points = lanes * static_cast<double>(eo.baseband_points);
    const double op_ms = total_ms(s, "rx_near.batch");
    return {
        {"lock.decode_ms", total_ms(s, "lock.decode_key") / ops},
        {"rf.batch_setup_ms", total_ms(s, "rf.ReceiverBatch") / ops},
        {"rf.stimulus_ms", total_ms(s, "rf.make_test_tone") / ops},
        {"rf.capture_receiver_ms", total_ms(s, "rf.capture_receiver") / ops},
        {"rf.capture_receiver_ns_per_lane_sample",
         total_ms(s, "rf.capture_receiver") * 1e6 / lane_samples},
        {"sim.noise_ms", total_ms(t.program, "rf.batch.noise") / ops},
        {"dsp.periodogram_ms",
         total_ms(s, "dsp.Periodogram::many_complex") / ops},
        {"dsp.periodogram_ns_per_point",
         total_ms(s, "dsp.Periodogram::many_complex") * 1e6 / points},
        {"dsp.fft_ms", total_ms(t.program, "dsp.fft") / ops},
        {"dsp.metric_ms", total_ms(s, "dsp.measure_snr") / ops},
        {"rx.signature_groups", traced_groups_ / ops},
        {"rx.pass_frac", traced_pass_ / lanes},
        {"trace_coverage_frac",
         op_ms > 0.0 ? 1.0 - self_ms(s, "rx_near.batch") / op_ms : 0.0},
    };
  }

 private:
  [[nodiscard]] std::vector<lock::Key64> make_keys(std::size_t input) const {
    sim::Rng rng = sim::Rng(seed_).fork("e2e.rx_near", input);
    std::vector<lock::Key64> keys{chip_.cal.key};
    while (keys.size() < kLanes) {
      const std::uint64_t flips = 1 + rng.uniform_below(3);
      std::uint64_t mask = 0;
      while (static_cast<std::uint64_t>(std::popcount(mask)) < flips) {
        mask |= 1ULL << rng.uniform_below(kTuningBits);
      }
      keys.push_back(lock::Key64{chip_.cal.key.bits() ^ mask});
    }
    return keys;
  }

  /// BatchEvaluator::snr_receiver_db for an evaluator with no fault
  /// injector, spelled out through the layers' public calls so each one
  /// gets its own span.
  std::vector<double> decomposed_snr(const std::vector<lock::Key64>& keys,
                                     SpanLog& trace) const {
    const lock::EvaluatorOptions& eo = evaluator_.options();
    std::vector<rf::ReceiverConfig> configs;
    {
      const SpanLog::Scope span(&trace, "lock.decode_key");
      for (const auto& key : keys) {
        configs.push_back(lock::decode_key(key, standard_.digital_mode));
      }
    }
    std::optional<rf::ReceiverBatch> batch;
    {
      const SpanLog::Scope span(&trace, "rf.ReceiverBatch");
      batch.emplace(standard_, chip_.pv, chip_.rng.fork("lock-evaluator"),
                    configs);
    }
    const double offset = rf::default_tone_offset_hz(standard_);
    std::vector<double> rf_in;
    {
      const SpanLog::Scope span(&trace, "rf.make_test_tone");
      rf_in = rf::make_test_tone(
          standard_, eo.input_dbm,
          rf::receiver_input_length(eo.baseband_points, eo.settle), offset);
    }
    std::vector<std::complex<double>> baseband;
    {
      const SpanLog::Scope span(&trace, "rf.capture_receiver");
      baseband = batch->capture_receiver(rf_in, eo.settle, eo.baseband_points,
                                         kSettleBaseband,
                                         par::ThreadPool::shared());
    }
    std::vector<dsp::Periodogram> spectra;
    {
      const SpanLog::Scope span(&trace, "dsp.Periodogram::many_complex");
      spectra = dsp::Periodogram::many_complex(baseband, keys.size(),
                                               batch->baseband_fs_hz());
    }
    const SpanLog::Scope span(&trace, "dsp.measure_snr");
    const double half_band = standard_.fs_hz() / (4.0 * standard_.osr);
    std::vector<double> out;
    for (const auto& spectrum : spectra) {
      out.push_back(
          dsp::measure_snr(spectrum, offset, -half_band, half_band).snr_db);
    }
    return out;
  }

  const rf::Standard& standard_;
  std::uint64_t seed_;
  CalibratedChip chip_;
  lock::LockEvaluator evaluator_;
  lock::BatchEvaluator batch_;
  std::size_t batches_;
  double traced_groups_ = 0.0;
  double traced_pass_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_rx_near(const Config& config) {
  return std::make_unique<RxNear>(config);
}

}  // namespace analock::e2e
