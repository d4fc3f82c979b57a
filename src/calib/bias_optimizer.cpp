#include "calib/bias_optimizer.h"

#include <algorithm>
#include <optional>

#include "lock/batch_evaluator.h"
#include "lock/key_layout.h"

namespace analock::calib {

namespace {

lock::EvaluatorOptions make_eval_options() {
  lock::EvaluatorOptions eval;
  eval.fft_size = BiasOptimizer::kFftSize;
  eval.input_dbm = BiasOptimizer::kInputDbm;
  // Quick two-tone screen: shorter capture, wider spacing than the final
  // paper metrology so the products stay separable on the coarser grid.
  eval.sfdr_fft_size = 8192;
  eval.two_tone_spacing_hz = 20.0e6;
  eval.two_tone_dbm = BiasOptimizer::kInputDbm - 5.0;
  return eval;
}

/// Whether score() goes on to measure SFDR after an SNR reading.
bool sfdr_gate_open(double snr_db) {
  return !(snr_db - BiasOptimizer::kSnrSpecDb < -BiasOptimizer::kSfdrGateDb);
}

/// Step-14 objective of one candidate; `measure_sfdr` runs only when the
/// SNR reading clears the gate. Far from the SNR spec, an SFDR measurement
/// would be wasted ATE time, and the SNR margin already orders candidates.
double objective(double snr_db, auto&& measure_sfdr) {
  const double snr_margin = snr_db - BiasOptimizer::kSnrSpecDb;
  if (!sfdr_gate_open(snr_db)) return snr_margin;
  return std::min(snr_margin, measure_sfdr() - BiasOptimizer::kSfdrSpecDb);
}

}  // namespace

BiasOptimizer::BiasOptimizer(const rf::Standard& standard,
                             const sim::ProcessVariation& process,
                             const sim::Rng& rng, std::size_t passes)
    : evaluator_(standard, process, rng, make_eval_options()),
      passes_(passes) {}

double BiasOptimizer::measure_snr(const rf::ReceiverConfig& config) {
  return evaluator_.snr_modulator_db(lock::encode_key(config));
}

double BiasOptimizer::measure_snr_at(const rf::ReceiverConfig& config,
                                     double input_dbm) {
  return evaluator_.snr_modulator_db(lock::encode_key(config), input_dbm);
}

double BiasOptimizer::measure_sfdr(const rf::ReceiverConfig& config) {
  return evaluator_.sfdr_db(lock::encode_key(config));
}

std::vector<double> BiasOptimizer::measure_snr_at(
    std::span<const rf::ReceiverConfig> configs,
    std::span<const double> input_dbm) {
  using Metric = lock::LockEvaluator::Metric;
  lock::BatchEvaluator batch(evaluator_);
  std::vector<lock::Key64> keys;
  for (const auto& config : configs) keys.push_back(lock::encode_key(config));
  std::vector<std::vector<double>> clean;
  for (const double dbm : input_dbm) {
    clean.push_back(batch.clean_snr_modulator(keys, dbm));
  }
  std::vector<double> out;
  for (std::size_t c = 0; c < keys.size(); ++c) {
    for (std::size_t p = 0; p < input_dbm.size(); ++p) {
      out.push_back(
          evaluator_.charge(Metric::kSnrModulator, keys[c], clean[p][c]));
    }
  }
  return out;
}

double BiasOptimizer::score(const rf::ReceiverConfig& config) {
  return objective(measure_snr(config),
                   [&] { return measure_sfdr(config); });
}

void BiasOptimizer::sweep_field(rf::ReceiverConfig& config,
                                std::uint32_t* field, std::uint32_t max_value,
                                double& best_score) {
  using Metric = lock::LockEvaluator::Metric;
  lock::BatchEvaluator batch(evaluator_);
  const lock::EvaluatorOptions& eval = evaluator_.options();
  // Clean readings per code. Only this field moves during the sweep, so a
  // code's readings hold for all of it.
  std::vector<std::optional<double>> snr(max_value + 1);
  std::vector<std::optional<double>> sfdr(max_value + 1);
  auto key_at = [&](std::uint32_t code) {
    *field = code;
    return lock::encode_key(config);
  };
  // Takes the clean readings of codes lo, lo+step, ..., <= hi not read
  // yet: SNR for all of them, SFDR for those whose SNR clears the gate.
  auto read_phase = [&](std::uint32_t lo, std::uint32_t hi,
                        std::uint32_t step) {
    std::vector<std::uint32_t> codes;
    std::vector<lock::Key64> keys;
    for (std::uint32_t code = lo; code <= hi; code += step) {
      if (snr[code]) continue;
      codes.push_back(code);
      keys.push_back(key_at(code));
    }
    const auto snr_db = batch.clean_snr_modulator(keys, eval.input_dbm);
    std::vector<std::uint32_t> gated_codes;
    std::vector<lock::Key64> gated_keys;
    for (std::size_t i = 0; i < codes.size(); ++i) {
      snr[codes[i]] = snr_db[i];
      if (sfdr_gate_open(snr_db[i])) {
        gated_codes.push_back(codes[i]);
        gated_keys.push_back(keys[i]);
      }
    }
    const auto sfdr_db = batch.clean_sfdr(gated_keys, eval.two_tone_dbm);
    for (std::size_t i = 0; i < gated_codes.size(); ++i) {
      sfdr[gated_codes[i]] = sfdr_db[i];
    }
  };
  // score() of one code, on its clean readings.
  auto score_code = [&](std::uint32_t code) {
    const lock::Key64 key = key_at(code);
    const double snr_db = evaluator_.charge(Metric::kSnrModulator, key,
                                            *snr[code]);
    return objective(snr_db, [&] {
      // A fault spike can lift a reading over the gate that its clean
      // reading did not clear.
      if (!sfdr[code]) {
        sfdr[code] = batch.clean_sfdr({&key, 1}, eval.two_tone_dbm)[0];
      }
      return evaluator_.charge(Metric::kSfdr, key, *sfdr[code]);
    });
  };

  std::uint32_t best_code = *field;
  // Coarse grid over the full range.
  const std::uint32_t coarse_step = std::max<std::uint32_t>(1, max_value / 8);
  read_phase(0, max_value, coarse_step);
  for (std::uint32_t code = 0; code <= max_value; code += coarse_step) {
    const double s = score_code(code);
    if (s > best_score) {
      best_score = s;
      best_code = code;
    }
  }
  // Local refinement around the best coarse point.
  const std::uint32_t lo =
      best_code > coarse_step ? best_code - coarse_step : 0;
  const std::uint32_t hi = std::min(max_value, best_code + coarse_step);
  read_phase(lo, hi, 1);
  for (std::uint32_t code = lo; code <= hi; ++code) {
    if (code == best_code) continue;  // the running best: see the header
    const double s = score_code(code);
    if (s > best_score) {
      best_score = s;
      best_code = code;
    }
  }
  *field = best_code;
}

rf::ReceiverConfig BiasOptimizer::optimize(const rf::ReceiverConfig& start) {
  rf::ReceiverConfig config = start;
  double best_score = score(config);
  for (std::size_t pass = 0; pass < passes_; ++pass) {
    // Step 11: loop delay according to Fs (trim against parasitics).
    sweep_field(config, &config.modulator.loop_delay, 15, best_score);
    // Step 14 order: Gmin, feedback DAC, pre-amplifier, comparator.
    sweep_field(config, &config.modulator.gmin_bias, 63, best_score);
    sweep_field(config, &config.modulator.dac_bias, 63, best_score);
    sweep_field(config, &config.modulator.preamp_bias, 63, best_score);
    sweep_field(config, &config.modulator.comp_bias, 63, best_score);
  }
  return config;
}

}  // namespace analock::calib
