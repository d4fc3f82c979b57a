// Experiment E9 (paper Section V.B): the 14-step calibration across
// Monte-Carlo chips — convergence, per-chip key uniqueness, and the
// measurement budget (each measurement is a 20-minute transistor-level
// simulation in the paper's setting, or an ATE test insertion).
#include <algorithm>
#include <vector>

#include "bench_common.h"

namespace {
// Streams this bench's event record to bench_calibration.jsonl (see ObsSession).
const analock::bench::ObsSession kObsSession("bench_calibration");
}  // namespace

namespace {

using namespace analock;

void run_calibration() {
  const rf::Standard& mode = rf::standard_max_3ghz();

  bench::banner("Sec. V.B — 14-step calibration across Monte-Carlo chips",
                "convergence, chip-unique keys, measurement budget");

  // At least two chips so pairwise key-uniqueness stays meaningful even
  // at ANALOCK_BENCH_TRIALS=1.
  const int n_chips =
      std::max(2, static_cast<int>(bench::trials_budget(8)));
  std::vector<bench::Chip> chips;
  std::printf("%5s %5s %10s %8s %8s %8s %9s %6s %22s\n", "chip", "ok",
              "ferr[kHz]", "SNRmod", "SNRrx", "SFDR", "measures", "caps",
              "key");
  for (int c = 0; c < n_chips; ++c) {
    chips.push_back(bench::make_calibrated_chip(
        mode, static_cast<std::uint64_t>(c)));
    const auto& r = chips.back().cal;
    // analock-verify: allow(taint-sink) experiment tables include the calibrated key column
    std::printf("%5d %5s %10.0f %8.1f %8.1f %8.1f %9zu %3u,%-3u %22s\n", c,
                r.success ? "yes" : "NO", r.tank_freq_err_hz / 1e3,
                r.snr_modulator_db, r.snr_receiver_db, r.sfdr_db,
                r.total_measurements, r.config.modulator.cap_coarse,
                r.config.modulator.cap_fine, r.key.to_hex().c_str());
  }

  // Key uniqueness: pairwise Hamming distances.
  unsigned min_dist = 64;
  double mean_dist = 0.0;
  int pairs = 0;
  for (int a = 0; a < n_chips; ++a) {
    for (int b = a + 1; b < n_chips; ++b) {
      const unsigned d = chips[static_cast<std::size_t>(a)].cal.key.hamming_distance(
          chips[static_cast<std::size_t>(b)].cal.key);
      min_dist = std::min(min_dist, d);
      mean_dist += d;
      ++pairs;
    }
  }
  mean_dist /= pairs;

  int successes = 0;
  double mean_meas = 0.0;
  for (const auto& chip : chips) {
    if (chip.cal.success) ++successes;
    mean_meas += static_cast<double>(chip.cal.total_measurements);
  }
  mean_meas /= n_chips;

  std::printf("\nsummary: %d/%d chips calibrate to spec | key Hamming "
              "distance min=%u mean=%.1f bits | mean %.0f measurements "
              "per chip (= %.0f h of the paper's transistor-level "
              "simulation, minutes on ATE)\n",
              successes, n_chips, min_dist, mean_dist, mean_meas,
              mean_meas * 20.0 / 60.0);

  // Step log of chip 0 — the secret procedure itself, with the per-step
  // measurement budget taken straight from the calibrator's own log (each
  // measurement is one 20-minute transistor-level simulation in the
  // paper's flow).
  std::printf("\ncalibration step log (chip 0):\n");
  std::uint64_t logged_meas = 0;
  for (const auto& step : chips[0].cal.log) {
    logged_meas += step.measurements;
    std::printf("  step %2d: %-55s metric=%8.4g  measures=%4llu (%5.1f h sim)\n",
                step.step, step.description.c_str(), step.metric,
                (unsigned long long)step.measurements,
                static_cast<double>(step.measurements) * 20.0 / 60.0);
  }
  std::printf("  logged steps account for %llu of %zu total measurements\n",
              (unsigned long long)logged_meas,
              chips[0].cal.total_measurements);
}

}  // namespace

int main() {
  analock::bench::Harness h("bench_calibration");
  h.add_case("calibration", run_calibration);
  return h.run();
}
