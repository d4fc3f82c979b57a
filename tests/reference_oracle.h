// Block-level reference for the oracle's three readings: the scalar
// Receiver capture (reference_receiver.h) -> dsp::Periodogram ->
// measure_* recipe, one key at a time. The library measures every reading through
// lock::BatchEvaluator and rf::ReceiverBatch; the parity tests and the
// bench_batch_eval gate compare that pipeline against this recipe bit
// for bit.
//
// Each function returns the clean reading of `key` on `evaluator`'s chip
// and options: nothing is charged and no fault is drawn.
#pragma once

#include "dsp/spectrum.h"
#include "lock/evaluator.h"
#include "reference_receiver.h"
#include "rf/receiver.h"
#include "rf/standards.h"

namespace analock::reference {

/// A freshly seeded receiver configured as the chip runs `key`.
inline Receiver make_receiver(const lock::LockEvaluator& evaluator,
                              const lock::Key64& key) {
  Receiver receiver(evaluator.standard(), evaluator.process(),
                    evaluator.rng());
  receiver.configure(evaluator.applied_config(key));
  return receiver;
}

/// SNR (dB) at the BP sigma-delta output. Fig. 7 measurement.
inline double snr_modulator_db(const lock::LockEvaluator& evaluator,
                               const lock::Key64& key, double input_dbm) {
  const rf::Standard& standard = evaluator.standard();
  const lock::EvaluatorOptions& options = evaluator.options();
  Receiver receiver = make_receiver(evaluator, key);
  const double offset = rf::default_tone_offset_hz(standard);
  const auto rf_in = rf::make_test_tone(
      standard, input_dbm, options.settle + options.fft_size, offset);
  const auto capture = receiver.capture_modulator(rf_in, options.settle);
  const dsp::Periodogram p(capture.output, standard.fs_hz());
  const auto snr = dsp::measure_snr_osr(p, standard.f0_hz + offset,
                                        standard.fs_hz() / 4.0, standard.osr);
  return snr.snr_db;
}

/// SNR (dB) at the RF-receiver (decimated baseband) output. Fig. 9.
inline double snr_receiver_db(const lock::LockEvaluator& evaluator,
                              const lock::Key64& key, double input_dbm) {
  const rf::Standard& standard = evaluator.standard();
  const lock::EvaluatorOptions& options = evaluator.options();
  Receiver receiver = make_receiver(evaluator, key);
  const double offset = rf::default_tone_offset_hz(standard);
  const std::size_t n =
      rf::receiver_input_length(options.baseband_points, options.settle);
  const auto rf_in = rf::make_test_tone(standard, input_dbm, n, offset);
  auto capture = receiver.capture_receiver(rf_in, options.settle);
  // Trim the baseband capture to a power-of-two length for the FFT.
  auto& bb = capture.baseband.samples;
  if (bb.size() > options.baseband_points) bb.resize(options.baseband_points);
  if (bb.size() < options.baseband_points || bb.empty()) return -200.0;
  const dsp::Periodogram p(bb, capture.baseband.fs_hz);
  const double half_band = standard.fs_hz() / (4.0 * standard.osr);
  const auto snr = dsp::measure_snr(p, offset, -half_band, half_band);
  return snr.snr_db;
}

/// Two-tone SFDR (dB) at the modulator output. Fig. 12.
inline double sfdr_db(const lock::LockEvaluator& evaluator,
                      const lock::Key64& key, double dbm_per_tone) {
  const rf::Standard& standard = evaluator.standard();
  const lock::EvaluatorOptions& options = evaluator.options();
  Receiver receiver = make_receiver(evaluator, key);
  const double center = standard.f0_hz + rf::default_tone_offset_hz(standard);
  const double spacing = options.two_tone_spacing_hz;
  const auto rf_in =
      rf::make_two_tone(standard, dbm_per_tone,
                        options.settle + options.sfdr_fft_size, spacing);
  const auto capture = receiver.capture_modulator(rf_in, options.settle);
  const dsp::Periodogram p(capture.output, standard.fs_hz());
  const double half_band = standard.fs_hz() / (4.0 * standard.osr);
  const double f0 = standard.fs_hz() / 4.0;
  const auto sfdr = dsp::measure_sfdr_two_tone(
      p, center - spacing / 2.0, center + spacing / 2.0, f0 - half_band,
      f0 + half_band);
  // The paper reports fundamental-to-third-order distance.
  return sfdr.im3_db;
}

/// Full report at the evaluator's default drive levels.
inline lock::PerformanceReport evaluate(const lock::LockEvaluator& evaluator,
                                        const lock::Key64& key) {
  const lock::EvaluatorOptions& options = evaluator.options();
  lock::PerformanceReport report;
  // These calls resolve by name to LockEvaluator's (key, dbm) overloads,
  // whose dbm argument sizes a stimulus; only that length reaches the
  // ReceiverBatch sample counters, never key bits.
  // analock-verify: allow(taint-call) stimulus length, not key material
  report.snr_modulator_db = snr_modulator_db(evaluator, key, options.input_dbm);
  report.snr_receiver_db = snr_receiver_db(evaluator, key, options.input_dbm);
  // analock-verify: allow(taint-call) stimulus length, not key material
  report.sfdr_db = sfdr_db(evaluator, key, options.two_tone_dbm);
  const rf::PerformanceSpec& spec = evaluator.standard().spec;
  report.snr_ok = report.snr_receiver_db >= spec.min_snr_db;
  report.sfdr_ok = report.sfdr_db >= spec.min_sfdr_db;
  return report;
}

}  // namespace analock::reference
