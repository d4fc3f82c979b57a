// Unit tests for calibration steps 11-14 (bias optimization).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <vector>

#include "calib/bias_optimizer.h"
#include "fault/fault_injector.h"
#include "lock/key_layout.h"
#include "rf/standards.h"
#include "sim/process.h"
#include "sim/rng.h"

namespace {

using namespace analock;
using calib::BiasOptimizer;

/// A configuration with the tank already tuned (nominal chip) but biases
/// deliberately off.
rf::ReceiverConfig detuned_bias_config() {
  rf::ReceiverConfig cfg;
  cfg.vglna_gain = 10;
  cfg.modulator.cap_coarse = 19;  // analytic tank tuning, nominal chip
  cfg.modulator.cap_fine = 102;
  cfg.modulator.q_enh = 21;
  cfg.modulator.gmin_bias = 10;
  cfg.modulator.dac_bias = 55;
  cfg.modulator.preamp_bias = 5;
  cfg.modulator.comp_bias = 60;
  cfg.modulator.loop_delay = 2;
  return cfg;
}

TEST(BiasOptimizer, ImprovesDetunedConfiguration) {
  const auto pv = sim::ProcessVariation::nominal();
  BiasOptimizer opt(rf::standard_max_3ghz(), pv, sim::Rng(60));
  const auto start = detuned_bias_config();
  const double snr_before = opt.measure_snr(start);
  const auto improved = opt.optimize(start);
  const double snr_after = opt.measure_snr(improved);
  EXPECT_GT(snr_after, snr_before + 5.0);
  EXPECT_GT(snr_after, 40.0);
}

TEST(BiasOptimizer, LeavesTankCodesAlone) {
  const auto pv = sim::ProcessVariation::nominal();
  BiasOptimizer opt(rf::standard_max_3ghz(), pv, sim::Rng(60));
  const auto start = detuned_bias_config();
  const auto improved = opt.optimize(start);
  EXPECT_EQ(improved.modulator.cap_coarse, start.modulator.cap_coarse);
  EXPECT_EQ(improved.modulator.cap_fine, start.modulator.cap_fine);
  EXPECT_EQ(improved.modulator.q_enh, start.modulator.q_enh);
  EXPECT_EQ(improved.vglna_gain, start.vglna_gain);
}

TEST(BiasOptimizer, FindsLoopDelayNearDesignPoint) {
  const auto pv = sim::ProcessVariation::nominal();
  BiasOptimizer opt(rf::standard_max_3ghz(), pv, sim::Rng(60));
  const auto improved = opt.optimize(detuned_bias_config());
  // Design point: parasitic 0.35 + code/15 + 1 structural = 2.0 samples
  // -> code ~ 9.75. SNR is flat within ~2 codes of it.
  EXPECT_GE(improved.modulator.loop_delay, 4u);
  EXPECT_LE(improved.modulator.loop_delay, 15u);
}

TEST(BiasOptimizer, MeasurementCountIsBudgeted) {
  const auto pv = sim::ProcessVariation::nominal();
  BiasOptimizer opt(rf::standard_max_3ghz(), pv, sim::Rng(60), 1);
  (void)opt.optimize(detuned_bias_config());
  // 5 fields x (coarse ~9 + refine ~2*step) plus SFDR-gated second
  // measurements: generously under 400.
  EXPECT_LT(opt.measurements(), 400u);
  EXPECT_GT(opt.measurements(), 30u);
}

TEST(BiasOptimizer, ScoreGatesSfdrWhenSnrIsFarOff) {
  const auto pv = sim::ProcessVariation::nominal();
  BiasOptimizer opt(rf::standard_max_3ghz(), pv, sim::Rng(60));
  // A hopeless config (loop open): score == snr margin, well below zero.
  rf::ReceiverConfig broken = detuned_bias_config();
  broken.modulator.feedback_enable = false;
  broken.modulator.comp_clock_enable = false;
  broken.modulator.gmin_enable = false;
  const double score = opt.score(broken);
  EXPECT_LT(score, -40.0);
}

TEST(BiasOptimizer, OptimizedConfigMeetsSfdrSpec) {
  const auto pv = sim::ProcessVariation::nominal();
  BiasOptimizer opt(rf::standard_max_3ghz(), pv, sim::Rng(60));
  const auto improved = opt.optimize(detuned_bias_config());
  EXPECT_GT(opt.measure_sfdr(improved), 38.0);
}

TEST(BiasOptimizer, SnrAtMeasuresRequestedPower) {
  const auto pv = sim::ProcessVariation::nominal();
  BiasOptimizer opt(rf::standard_max_3ghz(), pv, sim::Rng(60));
  const auto cfg = opt.optimize(detuned_bias_config());
  const double lo = opt.measure_snr_at(cfg, -45.0);
  const double hi = opt.measure_snr_at(cfg, -25.0);
  EXPECT_GT(hi, lo + 10.0);
}

/// The scalar coordinate descent BiasOptimizer::optimize batches: one
/// public score() per candidate, coarse grid then refine window per field.
/// `remeasures` counts refine steps that measure the coarse best again
/// (the running best moved below it before the loop reached it).
struct ReferenceDescent {
  BiasOptimizer& opt;
  std::size_t remeasures = 0;

  void sweep(rf::ReceiverConfig& config, std::uint32_t* field,
             std::uint32_t max_value, double& best_score) {
    std::uint32_t best_code = *field;
    const std::uint32_t coarse_step =
        std::max<std::uint32_t>(1, max_value / 8);
    for (std::uint32_t code = 0; code <= max_value; code += coarse_step) {
      *field = code;
      const double s = opt.score(config);
      if (s > best_score) {
        best_score = s;
        best_code = code;
      }
    }
    const std::uint32_t coarse_best = best_code;
    const std::uint32_t lo =
        best_code > coarse_step ? best_code - coarse_step : 0;
    const std::uint32_t hi = std::min(max_value, best_code + coarse_step);
    for (std::uint32_t code = lo; code <= hi; ++code) {
      if (code == best_code) continue;
      if (code == coarse_best) ++remeasures;
      *field = code;
      const double s = opt.score(config);
      if (s > best_score) {
        best_score = s;
        best_code = code;
      }
    }
    *field = best_code;
  }

  rf::ReceiverConfig optimize(const rf::ReceiverConfig& start,
                              std::size_t passes) {
    rf::ReceiverConfig config = start;
    double best_score = opt.score(config);
    for (std::size_t pass = 0; pass < passes; ++pass) {
      sweep(config, &config.modulator.loop_delay, 15, best_score);
      sweep(config, &config.modulator.gmin_bias, 63, best_score);
      sweep(config, &config.modulator.dac_bias, 63, best_score);
      sweep(config, &config.modulator.preamp_bias, 63, best_score);
      sweep(config, &config.modulator.comp_bias, 63, best_score);
    }
    return config;
  }
};

struct ParityRun {
  std::uint64_t key = 0;
  std::uint64_t final_score_bits = 0;  ///< score() of the optimized config
  std::size_t measurements = 0;
  fault::FaultInjector::Counts faults;
  std::size_t remeasures = 0;  ///< reference runs only
};

/// Runs optimize() (batched) or the reference on a fresh optimizer with
/// its own injector for `plan`, then scores the result once more, so the
/// injector streams must still be aligned after the descent.
ParityRun parity_run(bool reference, const fault::FaultPlan& plan,
                     const rf::ReceiverConfig& start,
                     std::size_t passes) {
  sim::Rng master(77);
  const auto pv = sim::ProcessVariation::monte_carlo(master, 1);
  fault::FaultInjector injector(plan);
  BiasOptimizer opt(rf::standard_max_3ghz(), pv, master.fork("chip", 1),
                    passes);
  opt.set_fault_injector(&injector);
  ParityRun run;
  rf::ReceiverConfig config;
  if (reference) {
    ReferenceDescent descent{opt};
    config = descent.optimize(start, passes);
    run.remeasures = descent.remeasures;
  } else {
    config = opt.optimize(start);
  }
  run.key = lock::encode_key(config).bits();
  run.final_score_bits = std::bit_cast<std::uint64_t>(opt.score(config));
  run.measurements = opt.measurements();
  run.faults = injector.counts();
  return run;
}

void expect_parity(const ParityRun& ref, const ParityRun& got) {
  EXPECT_EQ(got.key, ref.key);
  EXPECT_EQ(got.final_score_bits, ref.final_score_bits);
  EXPECT_EQ(got.measurements, ref.measurements);
  EXPECT_EQ(got.faults.meas_spikes, ref.faults.meas_spikes);
  EXPECT_EQ(got.faults.meas_dropouts, ref.faults.meas_dropouts);
  EXPECT_EQ(got.faults.words_stuck, ref.faults.words_stuck);
}

TEST(BiasOptimizer, BatchedSweepMatchesScalarDescentClean) {
  const fault::FaultPlan clean;
  const auto ref = parity_run(true, clean, detuned_bias_config(),
                              BiasOptimizer::kPasses);
  const auto got = parity_run(false, clean, detuned_bias_config(),
                              BiasOptimizer::kPasses);
  expect_parity(ref, got);
}

TEST(BiasOptimizer, BatchedSweepMatchesScalarDescentUnderFaults) {
  // Spikes large enough to lift far-off SNR readings over the SFDR gate
  // (so the sweep must read SFDRs it did not batch), dropouts, and
  // stuck register bits that alias candidate codes.
  fault::FaultPlan plan;
  plan.seed = 14;
  plan.meas_spike_prob = 0.5;
  plan.meas_spike_sigma_db = 25.0;
  plan.meas_dropout_prob = 0.05;
  plan.stuck_at0_bits = 2;
  plan.stuck_at1_bits = 1;
  const auto ref = parity_run(true, plan, detuned_bias_config(), 1);
  const auto got = parity_run(false, plan, detuned_bias_config(), 1);
  EXPECT_GT(ref.faults.meas_spikes, 0u);
  EXPECT_GT(ref.faults.meas_dropouts, 0u);
  EXPECT_GT(ref.faults.words_stuck, 0u);
  expect_parity(ref, got);
}

TEST(BiasOptimizer, BatchedSweepRepeatsCoarseBestRemeasure) {
  // A start whose descent overtakes a coarse best from below, so the
  // refine loop measures that code a second time.
  rf::ReceiverConfig start = detuned_bias_config();
  start.modulator.gmin_bias = 32;
  start.modulator.dac_bias = 32;
  start.modulator.preamp_bias = 32;
  start.modulator.comp_bias = 32;
  start.modulator.loop_delay = 8;
  const fault::FaultPlan clean;
  const auto ref = parity_run(true, clean, start, BiasOptimizer::kPasses);
  const auto got = parity_run(false, clean, start, BiasOptimizer::kPasses);
  EXPECT_GT(ref.remeasures, 0u);
  expect_parity(ref, got);
}

TEST(BiasOptimizer, SnrGridMatchesScalarOrderUnderFaults) {
  // Step 12's grid: readings, trials and fault draws as the scalar loop
  // "for each config, for each power" makes them.
  fault::FaultPlan plan;
  plan.seed = 5;
  plan.meas_spike_prob = 0.5;
  plan.meas_dropout_prob = 0.2;
  const auto pv = sim::ProcessVariation::nominal();
  std::vector<rf::ReceiverConfig> configs;
  for (std::uint32_t gain = 9; gain <= 11; ++gain) {
    configs.push_back(detuned_bias_config());
    configs.back().vglna_gain = gain;
  }
  const double powers[] = {-40.0, -20.0};

  fault::FaultInjector scalar_injector(plan);
  BiasOptimizer scalar(rf::standard_max_3ghz(), pv, sim::Rng(60));
  scalar.set_fault_injector(&scalar_injector);
  std::vector<double> expected;
  for (const auto& config : configs) {
    for (const double dbm : powers) {
      expected.push_back(scalar.measure_snr_at(config, dbm));
    }
  }

  fault::FaultInjector grid_injector(plan);
  BiasOptimizer grid(rf::standard_max_3ghz(), pv, sim::Rng(60));
  grid.set_fault_injector(&grid_injector);
  const auto got = grid.measure_snr_at(configs, powers);
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i]),
              std::bit_cast<std::uint64_t>(expected[i]))
        << i;
  }
  EXPECT_EQ(grid.measurements(), scalar.measurements());
  EXPECT_GT(scalar_injector.counts().meas_spikes, 0u);
  EXPECT_EQ(grid_injector.counts().meas_spikes,
            scalar_injector.counts().meas_spikes);
  EXPECT_EQ(grid_injector.counts().meas_dropouts,
            scalar_injector.counts().meas_dropouts);
}

}  // namespace
