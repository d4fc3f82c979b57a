#include "lock/evaluator.h"

#include "dsp/tonegen.h"
#include "obs/trace.h"

namespace analock::lock {

LockEvaluator::LockEvaluator(const rf::Standard& standard,
                             const sim::ProcessVariation& process,
                             const sim::Rng& rng, EvaluatorOptions options)
    : standard_(&standard),
      process_(process),
      rng_(rng.fork("lock-evaluator")),
      options_(options) {}

rf::ReceiverConfig LockEvaluator::applied_config(const Key64& key) const {
  const Key64 applied =
      injector_ != nullptr ? Key64{injector_->stuck_word(key.bits())} : key;
  return decode_key(applied, standard_->digital_mode);
}

rf::Receiver LockEvaluator::make_receiver(const Key64& key) const {
  rf::Receiver receiver(*standard_, process_, rng_);
  receiver.configure(applied_config(key));
  return receiver;
}

double LockEvaluator::charge(Metric metric, const Key64& key,
                             double clean_db) {
  const char* site = nullptr;
  switch (metric) {
    case Metric::kSnrModulator:
      ++trials_.snr_modulator;
      obs::count("eval.trials.snr_mod");
      site = "eval.snr_modulator";
      break;
    case Metric::kSnrReceiver:
      ++trials_.snr_receiver;
      obs::count("eval.trials.snr_rx");
      site = "eval.snr_receiver";
      break;
    case Metric::kSfdr:
      ++trials_.sfdr;
      obs::count("eval.trials.sfdr");
      site = "eval.sfdr";
      break;
  }
  if (injector_ == nullptr) return clean_db;
  (void)injector_->perturb_word(key.bits());
  return injector_->perturb_measurement(site, clean_db);
}

double LockEvaluator::snr_modulator_db(const Key64& key) {
  return snr_modulator_db(key, options_.input_dbm);
}

double LockEvaluator::snr_modulator_db(const Key64& key, double input_dbm) {
  ANALOCK_SPAN("eval.snr_modulator");
  rf::Receiver receiver = make_receiver(key);
  const double offset = rf::default_tone_offset_hz(*standard_);
  const auto rf_in = rf::make_test_tone(
      *standard_, input_dbm, options_.settle + options_.fft_size, offset);
  const auto capture = receiver.capture_modulator(rf_in, options_.settle);
  const dsp::Periodogram p(capture.output, standard_->fs_hz());
  const auto snr = dsp::measure_snr_osr(p, standard_->f0_hz + offset,
                                        standard_->fs_hz() / 4.0,
                                        standard_->osr);
  return charge(Metric::kSnrModulator, key, snr.snr_db);
}

double LockEvaluator::snr_receiver_db(const Key64& key) {
  return snr_receiver_db(key, options_.input_dbm);
}

double LockEvaluator::snr_receiver_db(const Key64& key, double input_dbm) {
  ANALOCK_SPAN("eval.snr_receiver");
  rf::Receiver receiver = make_receiver(key);
  const double offset = rf::default_tone_offset_hz(*standard_);
  const std::size_t n =
      rf::receiver_input_length(options_.baseband_points, options_.settle);
  const auto rf_in = rf::make_test_tone(*standard_, input_dbm, n, offset);
  auto capture = receiver.capture_receiver(rf_in, options_.settle);
  // Trim the baseband capture to a power-of-two length for the FFT.
  auto& bb = capture.baseband.samples;
  if (bb.size() > options_.baseband_points) bb.resize(options_.baseband_points);
  if (bb.size() < options_.baseband_points || bb.empty()) {
    return charge(Metric::kSnrReceiver, key, -200.0);
  }
  const dsp::Periodogram p(bb, capture.baseband.fs_hz);
  const double half_band = standard_->fs_hz() / (4.0 * standard_->osr);
  const auto snr = dsp::measure_snr(p, offset, -half_band, half_band);
  return charge(Metric::kSnrReceiver, key, snr.snr_db);
}

double LockEvaluator::sfdr_db(const Key64& key) {
  return sfdr_db(key, options_.two_tone_dbm);
}

double LockEvaluator::sfdr_db(const Key64& key, double dbm_per_tone) {
  ANALOCK_SPAN("eval.sfdr");
  rf::Receiver receiver = make_receiver(key);
  const double center =
      standard_->f0_hz + rf::default_tone_offset_hz(*standard_);
  const double spacing = options_.two_tone_spacing_hz;
  const auto rf_in =
      rf::make_two_tone(*standard_, dbm_per_tone,
                        options_.settle + options_.sfdr_fft_size, spacing);
  const auto capture = receiver.capture_modulator(rf_in, options_.settle);
  const dsp::Periodogram p(capture.output, standard_->fs_hz());
  const double half_band = standard_->fs_hz() / (4.0 * standard_->osr);
  const double f0 = standard_->fs_hz() / 4.0;
  const auto sfdr = dsp::measure_sfdr_two_tone(
      p, center - spacing / 2.0, center + spacing / 2.0, f0 - half_band,
      f0 + half_band);
  // The paper reports fundamental-to-third-order distance.
  return charge(Metric::kSfdr, key, sfdr.im3_db);
}

PerformanceReport LockEvaluator::evaluate(const Key64& key) {
  PerformanceReport report;
  report.snr_modulator_db = snr_modulator_db(key);
  report.snr_receiver_db = snr_receiver_db(key);
  report.sfdr_db = sfdr_db(key);
  const rf::PerformanceSpec& spec = standard_->spec;
  report.snr_ok = report.snr_receiver_db >= spec.min_snr_db;
  report.sfdr_ok = report.sfdr_db >= spec.min_sfdr_db;
  return report;
}

bool LockEvaluator::unlocks(const Key64& key) {
  return snr_receiver_db(key) >= standard_->spec.min_snr_db;
}

}  // namespace analock::lock
