#include "calib/calibrator.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>
#include <vector>

#include "lock/evaluator.h"
#include "lock/key_layout.h"
#include "obs/trace.h"
#include "sim/units.h"

namespace analock::calib {

namespace {

/// Median of a small sample (robust to one wild reading per 3 votes).
double median_of(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n == 0) return 0.0;
  if (n % 2 == 1) return values[n / 2];
  return 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Hardened runs (Options::harden): votes per final-characterization
/// reading (odd, so a single spiked or dropped reading cannot move the
/// median), extra attempts per retryable stage before the step's failure
/// becomes the run's, and the receiver-SNR drop from one recovery
/// attempt to the next that stops the retries as diverging.
constexpr unsigned kHardenedVotes = 3;
constexpr unsigned kMaxStepRetries = 2;
constexpr double kDivergenceMarginDb = 3.0;

}  // namespace

const char* to_string(FailureReason reason) {
  switch (reason) {
    case FailureReason::kNone: return "none";
    case FailureReason::kTankUntunable: return "tank-untunable";
    case FailureReason::kQNotConverged: return "q-not-converged";
    case FailureReason::kDiverged: return "diverged";
    case FailureReason::kSpecNotMet: return "spec-not-met";
  }
  return "unknown";
}

Calibrator::Calibrator(const rf::Standard& standard,
                       const sim::ProcessVariation& process,
                       const sim::Rng& chip_rng, Options options)
    : standard_(&standard),
      process_(process),
      chip_rng_(chip_rng),
      options_(options) {}

std::uint32_t Calibrator::tune_vglna_segment(rf::ReceiverConfig config,
                                             const InputSegment& segment,
                                             BiasOptimizer& optimizer) {
  // Step 12: pick the gain level that serves the whole segment. The
  // calibration plan targets headroom: the segment's top power should land
  // near (but under) the modulator full scale, which the design team knows
  // maps to ~0.45 V at the VGLNA output. The design gain table gives the
  // starting code; a +/-1 sweep by measured SNR at the segment midpoint
  // absorbs the chip's gain error.
  constexpr double kTargetTopVolts = 0.32;
  const double top_volts = sim::dbm_to_peak_volts(segment.hi_dbm);
  const double gain_needed_db = sim::to_db20(kTargetTopVolts / top_volts);
  // Design table: gain_db(code) = -9 + 3*code.
  const double code_real = (gain_needed_db + 9.0) / 3.0;
  const auto code0 = static_cast<std::uint32_t>(std::clamp(
      std::round(code_real), 0.0,
      static_cast<double>(rf::Vglna::kNumGainLevels - 1)));
  // Serve the whole segment: sensitivity at the midpoint, headroom at the
  // top, scored by the worse of the two.
  std::vector<rf::ReceiverConfig> candidates;
  const std::uint32_t first = code0 > 0 ? code0 - 1 : 0;
  const std::uint32_t last =
      std::min(rf::Vglna::kNumGainLevels - 1, code0 + 1);
  for (std::uint32_t code = first; code <= last; ++code) {
    config.vglna_gain = code;
    candidates.push_back(config);
  }
  const double powers[] = {segment.mid_dbm(), segment.hi_dbm};
  const auto snr = optimizer.measure_snr_at(candidates, powers);
  std::uint32_t best_code = code0;
  double best_score = -1e9;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const double score = std::min(snr[2 * i], snr[2 * i + 1]);
    if (score > best_score) {
      best_score = score;
      best_code = candidates[i].vglna_gain;
    }
  }
  return best_code;
}

CalibrationResult Calibrator::run() { return run_impl(nullptr); }

CalibrationResult Calibrator::run(const CalibrationCheckpoint& resume_from) {
  return run_impl(&resume_from);
}

CalibrationResult Calibrator::run_impl(
    const CalibrationCheckpoint* resume_from) {
  ANALOCK_SPAN("calib.run");
  CalibrationResult result;
  const double f0 = standard_->f0_hz;
  const bool harden = options_.harden;
  const unsigned max_retries = harden ? kMaxStepRetries : 0;
  const std::uint64_t faults_at_start = fault_count();
  std::uint64_t fault_mark = faults_at_start;

  // Every paper step is logged once, mirrored into the trace-event stream,
  // and charged its oracle-measurement delta (the paper's cost unit) plus
  // the retry/fault counts the hardened path accumulated on it.
  auto log_step = [&](int step, std::string description, double metric,
                      std::uint64_t measurements = 0, unsigned retries = 0) {
    const std::uint64_t now = fault_count();
    const std::uint64_t step_faults = now - fault_mark;
    fault_mark = now;
    obs::event("calib.step", {{"step", step},
                              {"description", description},
                              {"metric", metric},
                              {"measurements", measurements},
                              {"retries", retries},
                              {"faults", step_faults}});
    result.log.push_back({step, std::move(description), metric, measurements,
                          retries, step_faults});
    result.total_measurements += measurements;
    result.total_retries += retries;
  };
  auto step_retry = [&](int step, unsigned attempt) {
    obs::count("recover.step_retry");
    obs::event("recover.step_retry", {{"step", step}, {"attempt", attempt}});
  };
  auto finish = [&](FailureReason reason) {
    result.failure = reason;
    result.success = reason == FailureReason::kNone;
    result.faults_injected = fault_count() - faults_at_start;
  };

  std::uint32_t cap_coarse = 0;
  std::uint32_t cap_fine = 0;
  std::uint32_t q_enh = 0;
  if (resume_from != nullptr && resume_from->tank_done) {
    // Steps 1-7 were already paid for in a previous insertion: restore
    // the tank and Q codes from the checkpoint and continue at step 8.
    cap_coarse = resume_from->cap_coarse;
    cap_fine = resume_from->cap_fine;
    q_enh = resume_from->q_enh;
    result.tank_freq_err_hz = resume_from->tank_freq_err_hz;
    result.checkpoint = *resume_from;
    obs::count("recover.resume");
    obs::event("recover.resume", {{"cap_coarse", cap_coarse},
                                  {"cap_fine", cap_fine},
                                  {"q_enh", q_enh}});
    log_step(6, "tank codes restored from checkpoint",
             static_cast<double>(cap_fine), 0);
    log_step(7, "-Gm code restored from checkpoint",
             static_cast<double>(q_enh), 0);
  } else {
    // Steps 1-5 are the oscillation-mode setup; they are folded into
    // oscillation_mode_config() which the tuners program into the chip.
    log_step(1, "comparator configured as buffer (clock off)", 0);
    log_step(2, "output buffer adapted to off-chip load", 15);
    log_step(3, "RF input disabled (Gmin off)", 0);
    log_step(4, "feedback loop with DAC and loop delay off", 0);
    log_step(5, "-Gm set to maximum (oscillation mode)", 63);

    // The device under test in oscillation mode: a one-lane batch whose
    // noise streams run on from measurement to measurement, as the
    // chip's do on the ATE. It lives only through steps 5-7.
    rf::ReceiverBatch chip(*standard_, process_,
                          chip_rng_.fork("calibration-dut"));

    // Each of steps 6, 7 and the fine retune is charged the tuner
    // readings taken since the previous one was logged.
    OscillationTuner tuner(chip);
    std::size_t logged_readings = 0;
    auto step_readings = [&] {
      const std::size_t step = tuner.readings() - logged_readings;
      logged_readings = tuner.readings();
      return step;
    };

    // Step 6: tune Cc / Cf until the oscillation hits the center
    // frequency, retrying within the hardening budget if it diverges.
    OscillationTuner::Result osc;
    unsigned tank_retries = 0;
    {
      ANALOCK_SPAN("calib.step06_tank_tune");
      osc = tuner.tune(f0);
      while (!osc.converged && tank_retries < max_retries) {
        ++tank_retries;
        step_retry(6, tank_retries);
        osc = tuner.tune(f0);
      }
    }
    result.tank_freq_err_hz = osc.achieved_hz - f0;
    log_step(6, "capacitor arrays tuned to center frequency",
             osc.achieved_hz, step_readings(), tank_retries);
    obs::set_gauge("calib.tank_freq_err_hz", result.tank_freq_err_hz);
    if (!osc.converged) {
      finish(FailureReason::kTankUntunable);
      return result;  // untunable tank: the chip fails calibration
    }

    // Step 7: back -Gm off until the oscillation vanishes.
    OscillationTuner::BackOff q;
    unsigned q_retries = 0;
    {
      ANALOCK_SPAN("calib.step07_gm_backoff");
      q = tuner.back_off(osc.cap_coarse, osc.cap_fine);
      while (!q.converged && q_retries < max_retries) {
        ++q_retries;
        step_retry(7, q_retries);
        q = tuner.back_off(osc.cap_coarse, osc.cap_fine);
      }
    }
    log_step(7, "-Gm reduced until oscillation vanished",
             static_cast<double>(q.q_enh), step_readings(), q_retries);

    // Step 6 refinement: re-run the fine-array search at a gentle
    // overdrive (just above the threshold found in step 7) where the
    // oscillation pull toward fs/4 is weak and the counter discriminates
    // single fine codes.
    cap_coarse = osc.cap_coarse;
    cap_fine = osc.cap_fine;
    q_enh = q.q_enh;
    if (q.converged && q.q_threshold + 3 <= rf::LcTank::kQEnhMax) {
      ANALOCK_SPAN("calib.step06_fine_retune");
      const std::uint32_t q_gentle = q.q_threshold + 3;
      cap_fine = tuner.fine_tune(osc.cap_coarse, f0, q_gentle);
      const auto refined =
          tuner.measure_at_q(osc.cap_coarse, cap_fine, q_gentle);
      if (refined.freq_hz > 0.0) {
        result.tank_freq_err_hz = refined.freq_hz - f0;
      }
      obs::set_gauge("calib.tank_freq_err_hz", result.tank_freq_err_hz);
      log_step(6, "fine array re-tuned at gentle -Gm overdrive",
               static_cast<double>(cap_fine), step_readings());
    }

    // Steps 1-7 done: record the resume point.
    result.checkpoint = {true,  cap_coarse,
                         cap_fine, q_enh,
                         q.q_threshold, result.tank_freq_err_hz};
  }

  // Steps 8-10: restore the loop, apply the RF input, fs = 4 F0 (fixed by
  // the standard's clock plan). Step 13: nominal bias initialization.
  rf::ReceiverConfig config;
  config.digital_mode = standard_->digital_mode;
  config.vglna_gain = 10;  // initial guess near the reference-segment gain
  config.modulator.cap_coarse = cap_coarse;
  config.modulator.cap_fine = cap_fine;
  config.modulator.q_enh = q_enh;
  config.modulator.gmin_bias = 32;
  config.modulator.dac_bias = 32;
  config.modulator.preamp_bias = 32;
  config.modulator.comp_bias = 32;
  config.modulator.loop_delay = 8;
  config.modulator.feedback_enable = true;
  config.modulator.comp_clock_enable = true;
  config.modulator.gmin_enable = true;
  config.modulator.buffer_in_path = false;
  config.modulator.test_mux = 0;
  log_step(8, "feedback loop restored", 0);
  log_step(9, "operating mode: RF input applied at F0", f0);
  log_step(10, "sampling frequency Fs = 4 F0", standard_->fs_hz());
  log_step(13, "block biases initialized to nominal", 32);

  // Steps 11 + 14: loop delay and iterative bias improvement by measured
  // SNR of the modulator (fused inside the optimizer, charged to step 14).
  // Every optimizer and evaluator of the chip keeps a noise prefix of its
  // own, so each goes before the next one is built: the optimizer before
  // the step-12 refiner, both before the final characterization.
  std::optional<BiasOptimizer> optimizer;
  optimizer.emplace(*standard_, process_, chip_rng_, options_.bias_passes);
  optimizer->set_fault_injector(injector_);
  {
    ANALOCK_SPAN("calib.step11_14_bias_opt");
    config = optimizer->optimize(config);
  }
  log_step(11, "loop delay trimmed",
           static_cast<double>(config.modulator.loop_delay));
  const double optimized_snr_db = optimizer->measure_snr(config);
  log_step(14, "iterative bias optimization", optimized_snr_db,
           optimizer->measurements());

  // Step 12: VGLNA gain per input segment.
  if (options_.tune_vglna_segments) {
    ANALOCK_SPAN("calib.step12_vglna");
    const std::size_t opt_before = optimizer->measurements();
    for (std::size_t s = 0; s < kInputSegments.size(); ++s) {
      result.vglna_per_segment[s] =
          tune_vglna_segment(config, kInputSegments[s], *optimizer);
    }
    config.vglna_gain = result.vglna_per_segment[kReferenceSegment];
    std::uint64_t step12_measurements =
        optimizer->measurements() - opt_before;
    optimizer.reset();
    if (options_.refine_after_vglna) {
      BiasOptimizer refiner(*standard_, process_, chip_rng_, 1);
      refiner.set_fault_injector(injector_);
      config = refiner.optimize(config);
      step12_measurements += refiner.measurements();
    }
    log_step(12, "VGLNA tuned per input segment",
             static_cast<double>(config.vglna_gain), step12_measurements);
  } else {
    result.vglna_per_segment = {15, config.vglna_gain, 2};
  }
  optimizer.reset();

  // Final characterization with the full-length paper metrology. The
  // hardened path measures each metric kHardenedVotes times and
  // takes the median, so a single spiked or dropped-out reading cannot
  // veto a good chip (or pass a bad one).
  lock::LockEvaluator evaluator(*standard_, process_, chip_rng_);
  evaluator.set_fault_injector(injector_);
  const unsigned votes = harden ? kHardenedVotes : 1;
  auto robust = [&](auto&& measure) {
    if (votes == 1) return measure();
    std::vector<double> readings;
    readings.reserve(votes);
    for (unsigned v = 0; v < votes; ++v) readings.push_back(measure());
    const double med = median_of(readings);
    const auto [lo, hi] =
        std::minmax_element(readings.begin(), readings.end());
    if (*hi - *lo > 1.0) {
      obs::count("recover.median_vote");
      obs::event("recover.median_vote",
                 {{"spread_db", *hi - *lo}, {"median_db", med}});
    }
    return med;
  };
  auto characterize = [&] {
    ANALOCK_SPAN("calib.characterize");
    result.snr_modulator_db =
        robust([&] { return evaluator.snr_modulator_db(result.key); });
    result.snr_receiver_db =
        robust([&] { return evaluator.snr_receiver_db(result.key); });
    result.sfdr_db = robust([&] { return evaluator.sfdr_db(result.key); });
  };
  result.config = config;
  result.key = lock::encode_key(config);
  characterize();

  const rf::PerformanceSpec& spec = standard_->spec;
  auto meets_spec = [&] {
    return result.snr_receiver_db >= spec.min_snr_db &&
           result.sfdr_db >= spec.min_sfdr_db;
  };

  // Graceful degradation: when the chip misses spec under hardening, run
  // recovery bias passes within the retry budget — a faulted optimizer
  // pass can leave biases in a poor spot that one clean pass fixes.
  // Divergence detection stops retries that make the chip worse.
  FailureReason failure = FailureReason::kNone;
  if (harden && !meets_spec()) {
    double prev_snr = result.snr_receiver_db;
    for (unsigned attempt = 1; attempt <= max_retries; ++attempt) {
      step_retry(14, attempt);
      BiasOptimizer recovery(*standard_, process_, chip_rng_, 1);
      recovery.set_fault_injector(injector_);
      config = recovery.optimize(config);
      result.config = config;
      result.key = lock::encode_key(config);
      characterize();  // trials charged with the final evaluator total
      log_step(14, "spec-recovery bias pass", result.snr_receiver_db,
               recovery.measurements(), 1);
      if (meets_spec()) break;
      if (result.snr_receiver_db < prev_snr - kDivergenceMarginDb) {
        failure = FailureReason::kDiverged;
        obs::event("calib.diverged",
                   {{"prev_snr_db", prev_snr},
                    {"snr_db", result.snr_receiver_db}});
        break;
      }
      prev_snr = std::max(prev_snr, result.snr_receiver_db);
    }
  }
  result.total_measurements += evaluator.trials();
  if (failure == FailureReason::kNone && !meets_spec()) {
    failure = FailureReason::kSpecNotMet;
  }
  finish(failure);
  obs::event("calib.result",
             {{"success", result.success},
              {"failure", to_string(result.failure)},
              {"snr_receiver_db", result.snr_receiver_db},
              {"sfdr_db", result.sfdr_db},
              {"total_measurements", result.total_measurements},
              {"retries", result.total_retries},
              {"faults", result.faults_injected}});
  return result;
}

}  // namespace analock::calib
