#include "lock/batch_evaluator.h"

#include <algorithm>

#include "obs/trace.h"

namespace analock::lock {

rf::ReceiverBatch BatchEvaluator::receivers(std::span<const Key64> keys,
                                           std::size_t n) {
  std::vector<rf::ReceiverConfig> configs;
  configs.reserve(keys.size());
  for (const Key64& key : keys) {
    configs.push_back(evaluator_->applied_config(key));
  }
  return rf::ReceiverBatch(evaluator_->standard(), evaluator_->process(),
                           evaluator_->rng(), configs,
                           evaluator_->noise_prefix(n));
}

std::vector<double> BatchEvaluator::modulator_readings(
    std::span<const Key64> keys, std::span<const double> rf_in,
    const dsp::Periodogram::LaneReduction& reduce_lane) {
  const std::size_t settle = evaluator_->options().settle;
  const double fs_hz = evaluator_->standard().fs_hz();
  std::vector<double> out;
  out.reserve(keys.size());
  for (std::size_t begin = 0; begin < keys.size(); begin += kModulatorLanes) {
    const auto group =
        keys.subspan(begin, std::min(kModulatorLanes, keys.size() - begin));
    const auto captures = receivers(group, rf_in.size())
                              .capture_modulator(rf_in, settle, pool());
    const auto readings = dsp::Periodogram::reduced_real(
        captures, group.size(), fs_hz, reduce_lane, dsp::WindowKind::kHann,
        pool());
    out.insert(out.end(), readings.begin(), readings.end());
  }
  return out;
}

void BatchEvaluator::charge_all(LockEvaluator::Metric metric,
                                std::span<const Key64> keys,
                                std::vector<double>& readings) {
  for (std::size_t l = 0; l < keys.size(); ++l) {
    readings[l] = evaluator_->charge(metric, keys[l], readings[l]);
  }
}

std::vector<double> BatchEvaluator::clean_snr_modulator(
    std::span<const Key64> keys, double input_dbm) {
  if (keys.empty()) return {};
  ANALOCK_SPAN_QUIET("eval.batch.snr_modulator");
  const rf::Standard& standard = evaluator_->standard();
  const EvaluatorOptions& options = evaluator_->options();
  const double offset = rf::default_tone_offset_hz(standard);
  return modulator_readings(
      keys,
      evaluator_->test_tone(input_dbm, options.settle + options.fft_size),
      [&](const dsp::Periodogram& p) {
        return dsp::measure_snr_osr(p, standard.f0_hz + offset,
                                    standard.fs_hz() / 4.0, standard.osr)
            .snr_db;
      });
}

std::vector<double> BatchEvaluator::clean_snr_receiver(
    std::span<const Key64> keys, double input_dbm) {
  if (keys.empty()) return {};
  ANALOCK_SPAN_QUIET("eval.batch.snr_receiver");
  const rf::Standard& standard = evaluator_->standard();
  const EvaluatorOptions& options = evaluator_->options();
  const double offset = rf::default_tone_offset_hz(standard);
  const std::size_t n =
      rf::receiver_input_length(options.baseband_points, options.settle);
  rf::ReceiverBatch batch = receivers(keys, n);
  const auto& rf_in = evaluator_->test_tone(input_dbm, n);
  const auto baseband = batch.capture_receiver(
      rf_in, options.settle, options.baseband_points, /*settle_baseband=*/16,
      pool());
  const double half_band = standard.fs_hz() / (4.0 * standard.osr);
  return dsp::Periodogram::reduced_complex(
      baseband, keys.size(), batch.baseband_fs_hz(),
      [&](const dsp::Periodogram& p) {
        return dsp::measure_snr(p, offset, -half_band, half_band).snr_db;
      },
      dsp::WindowKind::kHann, pool());
}

std::vector<double> BatchEvaluator::clean_sfdr(std::span<const Key64> keys,
                                               double dbm_per_tone) {
  if (keys.empty()) return {};
  ANALOCK_SPAN_QUIET("eval.batch.sfdr");
  const rf::Standard& standard = evaluator_->standard();
  const EvaluatorOptions& options = evaluator_->options();
  const double center = standard.f0_hz + rf::default_tone_offset_hz(standard);
  const double spacing = options.two_tone_spacing_hz;
  const double half_band = standard.fs_hz() / (4.0 * standard.osr);
  const double f0 = standard.fs_hz() / 4.0;
  return modulator_readings(
      keys,
      evaluator_->two_tone(dbm_per_tone,
                           options.settle + options.sfdr_fft_size),
      [&](const dsp::Periodogram& p) {
        return dsp::measure_sfdr_two_tone(p, center - spacing / 2.0,
                                          center + spacing / 2.0,
                                          f0 - half_band, f0 + half_band)
            .im3_db;
      });
}

std::vector<double> BatchEvaluator::snr_receiver_db(
    std::span<const Key64> keys) {
  return snr_receiver_db(keys, evaluator_->options().input_dbm);
}

std::vector<double> BatchEvaluator::snr_receiver_db(
    std::span<const Key64> keys, double input_dbm) {
  auto values = clean_snr_receiver(keys, input_dbm);
  charge_all(LockEvaluator::Metric::kSnrReceiver, keys, values);
  return values;
}

std::vector<double> BatchEvaluator::snr_modulator_db(
    std::span<const Key64> keys) {
  return snr_modulator_db(keys, evaluator_->options().input_dbm);
}

std::vector<double> BatchEvaluator::snr_modulator_db(
    std::span<const Key64> keys, double input_dbm) {
  auto values = clean_snr_modulator(keys, input_dbm);
  charge_all(LockEvaluator::Metric::kSnrModulator, keys, values);
  return values;
}

std::vector<double> BatchEvaluator::sfdr_db(std::span<const Key64> keys) {
  return sfdr_db(keys, evaluator_->options().two_tone_dbm);
}

std::vector<double> BatchEvaluator::sfdr_db(std::span<const Key64> keys,
                                            double dbm_per_tone) {
  auto values = clean_sfdr(keys, dbm_per_tone);
  charge_all(LockEvaluator::Metric::kSfdr, keys, values);
  return values;
}

std::vector<PerformanceReport> BatchEvaluator::evaluate_batch(
    std::span<const Key64> keys) {
  const EvaluatorOptions& options = evaluator_->options();
  const auto mod = clean_snr_modulator(keys, options.input_dbm);
  const auto rx = clean_snr_receiver(keys, options.input_dbm);
  const auto sfdr = clean_sfdr(keys, options.two_tone_dbm);

  const rf::PerformanceSpec& spec = evaluator_->standard().spec;
  std::vector<PerformanceReport> reports(keys.size());
  // Per-key call order: per key, modulator SNR then receiver SNR then
  // SFDR, exactly as N evaluate() calls would book them.
  using Metric = LockEvaluator::Metric;
  for (std::size_t l = 0; l < keys.size(); ++l) {
    PerformanceReport& report = reports[l];
    report.snr_modulator_db =
        evaluator_->charge(Metric::kSnrModulator, keys[l], mod[l]);
    report.snr_receiver_db =
        evaluator_->charge(Metric::kSnrReceiver, keys[l], rx[l]);
    report.sfdr_db = evaluator_->charge(Metric::kSfdr, keys[l], sfdr[l]);
    report.snr_ok = report.snr_receiver_db >= spec.min_snr_db;
    report.sfdr_ok = report.sfdr_db >= spec.min_sfdr_db;
  }
  return reports;
}

}  // namespace analock::lock
