// Batched lock evaluator: measures many key candidates per transient by
// advancing them in lockstep through rf::ReceiverBatch.
//
// The batch is an accelerator, not a different oracle: every returned
// value is bit-identical to what the wrapped scalar LockEvaluator would
// produce for the same key sequence, for any thread count (see
// receiver_batch.h for why). Trial counters and fault-injector state
// advance exactly as if the scalar evaluator had been called once per
// key, so attack cost accounting and fault campaigns cannot tell the
// difference.
#pragma once

#include <span>
#include <vector>

#include "lock/evaluator.h"
#include "par/thread_pool.h"

namespace analock::lock {

class BatchEvaluator {
 public:
  /// Wraps `scalar` (not owned; must outlive the batch evaluator).
  /// Measurements are charged to the scalar evaluator's trial counters
  /// and routed through its fault injector. `pool` selects the worker
  /// pool (not owned); nullptr uses par::ThreadPool::shared().
  explicit BatchEvaluator(LockEvaluator& scalar,
                          par::ThreadPool* pool = nullptr)
      : scalar_(&scalar), pool_(pool) {}

  [[nodiscard]] const LockEvaluator& scalar() const { return *scalar_; }

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
  // of time books each one with LockEvaluator::charge in the order the
  // scalar evaluator would have measured them.
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

  /// Lane configs as the chip runs them (LockEvaluator::applied_config).
  [[nodiscard]] std::vector<rf::ReceiverConfig> lane_configs(
      std::span<const Key64> keys) const;

  /// Books readings[i] as one `metric` measurement of keys[i], in order.
  void charge_all(LockEvaluator::Metric metric, std::span<const Key64> keys,
                  std::vector<double>& readings);

  LockEvaluator* scalar_;
  par::ThreadPool* pool_;
};

}  // namespace analock::lock
