// calibrate: the defender's flow. Operation i fabricates chip i of the
// max-3GHz standard from the seed and runs the full 14-step
// Calibrator::run() on it (about 760 oracle measurements per chip).
// Calibration goes through the scalar LockEvaluator and rf::Receiver, so
// it uses one of the pool's cores.
#include <string>

#include "calib/calibrator.h"
#include "e2e.h"
#include "lock/evaluator.h"
#include "rf/standards.h"

namespace analock::e2e {

namespace {

constexpr std::size_t kChips = 8;

/// Paper steps whose spans partition Calibrator::run (steps 1-5, 8-10 and
/// 13 are bookkeeping without measurements).
const char* const kStepSpans[] = {
    "calib.step06_tank_tune", "calib.step07_gm_backoff",
    "calib.step06_fine_retune", "calib.step11_14_bias_opt",
    "calib.step12_vglna", "calib.characterize"};

class Calibrate final : public Workload {
 public:
  explicit Calibrate(const Config& config)
      : standard_(rf::standard_max_3ghz()),
        master_(config.seed),
        chips_(config.smoke ? 1 : kChips) {}

  std::size_t inputs() const override { return chips_; }
  std::string variant() const override { return "calibrate"; }
  std::string sizes_json() const override {
    return "{\"chips\":" + std::to_string(chips_) + ",\"standard\":\"" +
           std::string(standard_.name) + "\"}";
  }

  OpResult run(std::size_t input, SpanLog* trace) override {
    OpResult result;
    const auto pv = sim::ProcessVariation::monte_carlo(master_, input);
    const sim::Rng chip_rng = master_.fork("chip", input);
    calib::Calibrator calibrator(standard_, pv, chip_rng);
    calib::CalibrationResult cal;
    {
      const OpScope op(trace, "calibrate.chip", result);
      cal = calibrator.run();
    }

    Digest digest;
    digest.add(static_cast<std::uint64_t>(cal.success));
    digest.add(static_cast<std::uint64_t>(cal.failure));
    digest.add(cal.key.bits());
    digest.add(static_cast<std::uint64_t>(cal.total_measurements));
    for (const auto& step : cal.log) digest.add(step.measurements);
    digest.add(cal.snr_modulator_db);
    digest.add(cal.snr_receiver_db);
    digest.add(cal.sfdr_db);
    result.digest = digest.hex();
    result.work = static_cast<double>(cal.total_measurements);

    // A chip that fails to calibrate is a simulated outcome (yield), not
    // a failed operation. A calibrated key must unlock its chip, and a
    // fresh evaluator must re-measure exactly what calibration reported.
    if (cal.success) {
      lock::LockEvaluator evaluator(standard_, pv, chip_rng);
      const lock::PerformanceReport report = evaluator.evaluate(cal.key);
      if (!report.unlocked()) {
        result.errors.push_back("calibrated key does not unlock chip " +
                                std::to_string(input));
      }
      if (report.snr_modulator_db != cal.snr_modulator_db ||
          report.snr_receiver_db != cal.snr_receiver_db ||
          report.sfdr_db != cal.sfdr_db) {
        result.errors.push_back("re-measured key differs from calibration "
                                "on chip " + std::to_string(input));
      }
    }
    if (trace != nullptr) {
      traced_measurements_ += result.work;
      traced_calibrated_ += cal.success ? 1.0 : 0.0;
    }
    return result;
  }

  std::map<std::string, double> layers(const TraceSummary& t) const override {
    const auto& p = t.program;
    const double ops = static_cast<double>(t.ops);
    double steps_ms = 0.0;
    for (const char* step : kStepSpans) steps_ms += total_ms(p, step);
    const double run_ms = total_ms(p, "calib.run");
    return {
        {"calib.tank_tune_ms", total_ms(p, "calib.step06_tank_tune") / ops},
        {"calib.gm_backoff_ms", total_ms(p, "calib.step07_gm_backoff") / ops},
        {"calib.fine_retune_ms", total_ms(p, "calib.step06_fine_retune") / ops},
        {"calib.bias_opt_self_ms",
         self_ms(p, "calib.step11_14_bias_opt") / ops},
        {"calib.vglna_ms", total_ms(p, "calib.step12_vglna") / ops},
        {"calib.characterize_ms", total_ms(p, "calib.characterize") / ops},
        {"lock.snr_modulator_self_ms", self_ms(p, "eval.snr_modulator") / ops},
        {"lock.snr_receiver_self_ms", self_ms(p, "eval.snr_receiver") / ops},
        {"lock.sfdr_self_ms", self_ms(p, "eval.sfdr") / ops},
        {"dsp.periodogram_self_ms", self_ms(p, "dsp.periodogram") / ops},
        {"dsp.fft_ms", total_ms(p, "dsp.fft") / ops},
        {"calib.measurements_per_chip", traced_measurements_ / ops},
        {"calib.meas_per_s", traced_measurements_ / (t.wall_ns / 1e9)},
        {"calib.yield", traced_calibrated_ / ops},
        {"trace_coverage_frac", run_ms > 0.0 ? steps_ms / run_ms : 0.0},
    };
  }

 private:
  const rf::Standard& standard_;
  sim::Rng master_;
  std::size_t chips_;
  double traced_measurements_ = 0.0;
  double traced_calibrated_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_calibrate(const Config& config) {
  return std::make_unique<Calibrate>(config);
}

}  // namespace analock::e2e
