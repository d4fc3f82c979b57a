// Batched lock evaluator: measures many key candidates per transient by
// advancing them in lockstep through rf::ReceiverBatch.
//
// This is the oracle's only measurement pipeline. LockEvaluator's per-key
// calls are batches of one through it, so a batch of N returns exactly
// what N per-key calls return, for any thread count; the scalar chip in
// tests/reference_receiver.h serves only as the parity reference (see
// receiver_batch.h for why the two agree bit for bit). Trial counters and
// fault-injector state advance exactly as if LockEvaluator had been
// called once per key, so attack cost accounting and fault campaigns
// cannot tell the difference. Every reading takes its stimulus from the
// evaluator and, when its transient fits in one noise window, its noise
// from the evaluator's prefix (LockEvaluator::noise_prefix).
#pragma once

#include <span>
#include <vector>

#include "dsp/spectrum.h"
#include "lock/evaluator.h"
#include "par/thread_pool.h"
#include "rf/receiver_batch.h"

namespace analock::lock {

class BatchEvaluator {
 public:
  /// Measures on `evaluator`'s chip (not owned; must outlive the batch
  /// evaluator). Measurements are charged to its trial counters and
  /// routed through its fault injector. `pool` selects the worker pool
  /// (not owned); nullptr uses par::ThreadPool::shared().
  explicit BatchEvaluator(LockEvaluator& evaluator,
                          par::ThreadPool* pool = nullptr)
      : evaluator_(&evaluator), pool_(pool) {}

  /// Batched LockEvaluator::snr_receiver_db: result i corresponds to
  /// keys[i].
  [[nodiscard]] std::vector<double> snr_receiver_db(
      std::span<const Key64> keys);
  [[nodiscard]] std::vector<double> snr_receiver_db(
      std::span<const Key64> keys, double input_dbm);

  /// Batched LockEvaluator::snr_modulator_db.
  [[nodiscard]] std::vector<double> snr_modulator_db(
      std::span<const Key64> keys);
  [[nodiscard]] std::vector<double> snr_modulator_db(
      std::span<const Key64> keys, double input_dbm);

  /// Batched LockEvaluator::sfdr_db.
  [[nodiscard]] std::vector<double> sfdr_db(std::span<const Key64> keys);
  [[nodiscard]] std::vector<double> sfdr_db(std::span<const Key64> keys,
                                            double dbm_per_tone);

  /// Batched LockEvaluator::evaluate: result i corresponds to keys[i].
  [[nodiscard]] std::vector<PerformanceReport> evaluate_batch(
      std::span<const Key64> keys);

  // Clean readings: result i is the reading keys[i] gives before the
  // fault injector, a pure function of (chip, key, options). Nothing is
  // charged and no fault is drawn. A consumer that takes readings ahead
  // of time books each one with LockEvaluator::charge in the order
  // per-key calls would have measured them.
  [[nodiscard]] std::vector<double> clean_snr_modulator(
      std::span<const Key64> keys, double input_dbm);
  [[nodiscard]] std::vector<double> clean_snr_receiver(
      std::span<const Key64> keys, double input_dbm);
  [[nodiscard]] std::vector<double> clean_sfdr(std::span<const Key64> keys,
                                               double dbm_per_tone);

 private:
  [[nodiscard]] par::ThreadPool& pool() const {
    return pool_ != nullptr ? *pool_ : par::ThreadPool::shared();
  }

  /// One receiver lane per key, configured as the chip runs it
  /// (LockEvaluator::applied_config), for one `n`-sample capture: it
  /// reads the evaluator's noise prefix when it fits
  /// (LockEvaluator::noise_prefix).
  [[nodiscard]] rf::ReceiverBatch receivers(std::span<const Key64> keys,
                                            std::size_t n);

  /// Keys per modulator capture. A longer batch runs in groups of this
  /// many, so a group's outputs and spectra stay small next to the
  /// evaluator's noise prefix; a lane reads the same in any group.
  static constexpr std::size_t kModulatorLanes = 8;

  /// `measure(p)` of the periodogram p of each key's post-settle
  /// modulator output driven by `rf_in`, in key order.
  template <typename Measure>
  [[nodiscard]] std::vector<double> modulator_readings(
      std::span<const Key64> keys, std::span<const double> rf_in,
      Measure&& measure);

  /// Books readings[i] as one `metric` measurement of keys[i], in order.
  void charge_all(LockEvaluator::Metric metric, std::span<const Key64> keys,
                  std::vector<double>& readings);

  LockEvaluator* evaluator_;
  par::ThreadPool* pool_;
};

}  // namespace analock::lock
