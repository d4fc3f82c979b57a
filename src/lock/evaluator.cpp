#include "lock/evaluator.h"

#include <algorithm>

#include "lock/batch_evaluator.h"
#include "obs/trace.h"

namespace analock::lock {

namespace {

/// The longest transient of a reading under `options` that fits in one
/// noise window, or 0 when none does.
std::size_t prefix_length(const EvaluatorOptions& options) {
  std::size_t length = 0;
  for (const std::size_t n :
       {options.settle + options.fft_size,
        options.settle + options.sfdr_fft_size,
        rf::receiver_input_length(options.baseband_points, options.settle)}) {
    if (n <= rf::ReceiverBatch::kNoiseWindow) length = std::max(length, n);
  }
  return length;
}

/// Returns `slot`'s samples, rebuilding them with `make` unless they were
/// built at `dbm` with `n` samples. A stimulus longer than a noise window
/// releases `other` when that one is too: the evaluator keeps at most one
/// of them, so a multi-window reading never holds another one's stimulus
/// next to its own.
const std::vector<double>& reuse_or_build(auto& slot, auto& other,
                                          double dbm, std::size_t n,
                                          auto&& make) {
  if (slot.dbm != dbm || slot.samples.size() != n) {
    constexpr std::size_t kWindow = rf::ReceiverBatch::kNoiseWindow;
    slot = {};  // the old stimulus goes before the new one comes
    if (n > kWindow && other.samples.size() > kWindow) other = {};
    slot.samples = make();
    slot.dbm = dbm;
  }
  return slot.samples;
}

}  // namespace

LockEvaluator::LockEvaluator(const rf::Standard& standard,
                             const sim::ProcessVariation& process,
                             const sim::Rng& rng, EvaluatorOptions options)
    : standard_(&standard),
      process_(process),
      rng_(rng.fork("lock-evaluator")),
      options_(options),
      prefix_length_(prefix_length(options)) {}

rf::ReceiverBatch::NoisePrefix* LockEvaluator::noise_prefix(std::size_t n) {
  if (n > prefix_length_) {
    noise_prefix_.reset();
    return nullptr;
  }
  if (!noise_prefix_) {
    noise_prefix_ =
        std::make_unique<rf::ReceiverBatch::NoisePrefix>(rng_, prefix_length_);
  }
  return noise_prefix_.get();
}

const std::vector<double>& LockEvaluator::test_tone(double dbm,
                                                    std::size_t n) {
  return reuse_or_build(tone_, two_tone_, dbm, n, [&] {
    return rf::make_test_tone(*standard_, dbm, n,
                              rf::default_tone_offset_hz(*standard_));
  });
}

const std::vector<double>& LockEvaluator::two_tone(double dbm_per_tone,
                                                   std::size_t n) {
  return reuse_or_build(two_tone_, tone_, dbm_per_tone, n, [&] {
    return rf::make_two_tone(*standard_, dbm_per_tone, n,
                             options_.two_tone_spacing_hz);
  });
}

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
