// bruteforce: the attacker's flow through the batch engine. Operation r
// runs BruteForceAttack for 1024 uniformly random keys (mode bits random,
// batch_size 32) against fabricated chip 0, with the attack RNG
// Rng(seed).fork("e2e.bruteforce", r). The screen is batched modulator
// SNR: short transients where FFT and periodogram weigh most; about 8% of
// keys survive to small receiver batches.
#include <algorithm>
#include <string>

#include "attack/brute_force.h"
#include "e2e.h"
#include "lock/evaluator.h"
#include "rf/receiver.h"
#include "rf/standards.h"

namespace analock::e2e {

namespace {

constexpr std::size_t kRuns = 12;
constexpr std::uint64_t kTrials = 1024;
constexpr std::uint64_t kSmokeTrials = 64;
constexpr std::uint64_t kBatch = 32;

class BruteForce final : public Workload {
 public:
  explicit BruteForce(const Config& config)
      : standard_(rf::standard_max_3ghz()),
        seed_(config.seed),
        pv_(sim::ProcessVariation::monte_carlo(sim::Rng(config.seed), 0)),
        chip_rng_(sim::Rng(config.seed).fork("chip", 0)),
        evaluator_(standard_, pv_, chip_rng_),
        runs_(config.smoke ? 1 : kRuns),
        trials_(config.smoke ? kSmokeTrials : kTrials) {}

  std::size_t inputs() const override { return runs_; }
  std::string variant() const override {
    return "bruteforce/" + std::to_string(trials_);
  }
  std::string sizes_json() const override {
    return "{\"runs\":" + std::to_string(runs_) +
           ",\"max_trials\":" + std::to_string(trials_) +
           ",\"batch_size\":" + std::to_string(kBatch) + ",\"chip\":0}";
  }

  OpResult run(std::size_t input, SpanLog* trace) override {
    OpResult result;
    const sim::Rng attack_rng = sim::Rng(seed_).fork("e2e.bruteforce", input);
    attack::BruteForceAttack attack(evaluator_, attack_rng);
    attack::BruteForceOptions options;
    options.max_trials = trials_;
    options.batch_size = kBatch;
    attack::BruteForceResult r;
    {
      const OpScope op(trace, "bruteforce.run", result);
      r = attack.run(options);
    }

    Digest digest;
    digest.add(r.trials);
    digest.add(static_cast<std::uint64_t>(r.success));
    digest.add(r.best_key.bits());
    for (const double snr : r.screen_snr_db) digest.add(snr);
    digest.add(r.best_screen_snr_db);
    digest.add(r.best_receiver_snr_db);
    digest.add(r.cost.snr_trials);
    digest.add(r.cost.sfdr_trials);
    result.digest = digest.hex();
    result.work = static_cast<double>(r.trials);

    const std::string run_id = "run " + std::to_string(input);
    if (r.screen_snr_db.size() != r.trials || r.trials > trials_) {
      result.errors.push_back(run_id + ": trial bookkeeping is inconsistent");
    }
    if (r.trials < trials_ && !r.success) {
      result.errors.push_back(run_id + ": ended short of its budget "
                              "without a success");
    }
    if (r.success) {
      // A success must be a key that a fresh evaluator confirms unlocks
      // the chip, with the receiver SNR the attack reported.
      lock::LockEvaluator fresh(standard_, pv_, chip_rng_);
      const lock::PerformanceReport report = fresh.evaluate(r.best_key);
      if (!report.unlocked() ||
          report.snr_receiver_db != r.best_receiver_snr_db) {
        result.errors.push_back(run_id + ": reported success does not "
                                "verify");
      }
    }
    if (trace != nullptr) record_traffic(attack_rng, r, options);
    return result;
  }

  std::map<std::string, double> layers(const TraceSummary& t) const override {
    const auto& p = t.program;
    const double ops = static_cast<double>(t.ops);
    const lock::EvaluatorOptions& eo = evaluator_.options();
    const double mod_lane_samples =
        traced_trials_ * static_cast<double>(eo.settle + eo.fft_size);
    const double rx_lane_samples =
        traced_survivors_ *
        static_cast<double>(
            rf::receiver_input_length(eo.baseband_points, eo.settle));
    const double attack_ms = total_ms(p, "attack.brute_force");
    const double oracle_ms = total_ms(p, "eval.batch.snr_modulator") +
                             total_ms(p, "eval.batch.snr_receiver") +
                             total_ms(p, "eval.sfdr");
    const double rx_calls = calls(p, "eval.batch.snr_receiver");
    return {
        {"attack.bruteforce_self_ms", self_ms(p, "attack.brute_force") / ops},
        {"lock.batch_snr_modulator_self_ms",
         self_ms(p, "eval.batch.snr_modulator") / ops},
        {"rf.capture_modulator_ms",
         total_ms(p, "rf.batch.capture_modulator") / ops},
        {"rf.capture_modulator_ns_per_lane_sample",
         mod_lane_samples > 0.0
             ? total_ms(p, "rf.batch.capture_modulator") * 1e6 /
                   mod_lane_samples
             : 0.0},
        {"sim.noise_ms", total_ms(p, "rf.batch.noise") / ops},
        {"dsp.periodogram_batch_self_ms",
         self_ms(p, "dsp.periodogram.batch") / ops},
        {"dsp.fft_ms", total_ms(p, "dsp.fft") / ops},
        {"lock.batch_snr_receiver_self_ms",
         self_ms(p, "eval.batch.snr_receiver") / ops},
        {"rf.capture_receiver_ms",
         total_ms(p, "rf.batch.capture_receiver") / ops},
        {"rf.capture_receiver_ns_per_lane_sample",
         rx_lane_samples > 0.0
             ? total_ms(p, "rf.batch.capture_receiver") * 1e6 /
                   rx_lane_samples
             : 0.0},
        {"lock.sfdr_ms", total_ms(p, "eval.sfdr") / ops},
        {"bf.screen_pass_frac", traced_survivors_ / traced_trials_},
        {"bf.rx_lanes_per_call",
         rx_calls > 0.0 ? traced_survivors_ / rx_calls : 0.0},
        {"bf.signature_groups", traced_groups_ / traced_batches_},
        {"trace_coverage_frac", attack_ms > 0.0 ? oracle_ms / attack_ms : 0.0},
    };
  }

 private:
  /// Counts the traffic a traced run generated: screen survivors, and the
  /// mode signatures of each screened batch. The keys are re-drawn in
  /// BruteForceAttack's order (Key64::random per trial, batch_size per
  /// screen).
  void record_traffic(sim::Rng rng, const attack::BruteForceResult& r,
                      const attack::BruteForceOptions& options) {
    traced_trials_ += static_cast<double>(r.trials);
    traced_survivors_ += static_cast<double>(std::count_if(
        r.screen_snr_db.begin(), r.screen_snr_db.end(),
        [&](double snr) { return snr >= options.screen_snr_db; }));
    std::vector<std::uint64_t> batch;
    for (std::uint64_t done = 0; done < r.trials; done += batch.size()) {
      batch.clear();
      const std::uint64_t n = std::min(options.batch_size, r.trials - done);
      for (std::uint64_t i = 0; i < n; ++i) {
        batch.push_back(lock::Key64::random(rng).bits());
      }
      traced_groups_ += static_cast<double>(signature_groups(batch));
      traced_batches_ += 1.0;
    }
  }

  const rf::Standard& standard_;
  std::uint64_t seed_;
  sim::ProcessVariation pv_;
  sim::Rng chip_rng_;
  lock::LockEvaluator evaluator_;
  std::size_t runs_;
  std::uint64_t trials_;
  double traced_trials_ = 0.0;
  double traced_survivors_ = 0.0;
  double traced_groups_ = 0.0;
  double traced_batches_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_bruteforce(const Config& config) {
  return std::make_unique<BruteForce>(config);
}

}  // namespace analock::e2e
