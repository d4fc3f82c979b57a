#include "lock/evaluator.h"

#include "lock/batch_evaluator.h"
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
  return BatchEvaluator(*this).snr_modulator_db({&key, 1}, input_dbm)[0];
}

double LockEvaluator::snr_receiver_db(const Key64& key) {
  return snr_receiver_db(key, options_.input_dbm);
}

double LockEvaluator::snr_receiver_db(const Key64& key, double input_dbm) {
  ANALOCK_SPAN("eval.snr_receiver");
  return BatchEvaluator(*this).snr_receiver_db({&key, 1}, input_dbm)[0];
}

double LockEvaluator::sfdr_db(const Key64& key) {
  return sfdr_db(key, options_.two_tone_dbm);
}

double LockEvaluator::sfdr_db(const Key64& key, double dbm_per_tone) {
  ANALOCK_SPAN("eval.sfdr");
  return BatchEvaluator(*this).sfdr_db({&key, 1}, dbm_per_tone)[0];
}

PerformanceReport LockEvaluator::evaluate(const Key64& key) {
  return BatchEvaluator(*this).evaluate_batch({&key, 1})[0];
}

bool LockEvaluator::unlocks(const Key64& key) {
  return snr_receiver_db(key) >= standard_->spec.min_snr_db;
}

}  // namespace analock::lock
