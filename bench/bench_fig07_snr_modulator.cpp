// Experiment E1 (paper Fig. 7): SNR at the BP RF sigma-delta modulator
// output for the correct key and 100 randomly generated invalid keys.
// Input: 3 GHz tone at -25 dBm, OSR 64, 8192-point FFT.
//
// Paper shape: correct key > 40 dB; every invalid key < 30 dB; most
// invalid keys < 0 dB; a handful above 10 dB with one "deceptive" key
// near 30 dB (loop open + comparator as buffer).
#include <algorithm>

#include "bench_common.h"

namespace {
// Streams this bench's event record to bench_fig07_snr_modulator.jsonl (see ObsSession).
const analock::bench::ObsSession kObsSession("bench_fig07_snr_modulator");
}  // namespace

namespace {

using namespace analock;

void run_fig07() {
  const rf::Standard& mode = rf::standard_max_3ghz();
  auto chip = bench::make_calibrated_chip(mode);
  auto ev = bench::make_evaluator(mode, chip);

  bench::banner("Fig. 7 — SNR at modulator output, correct vs 100 invalid keys",
                "tone -25 dBm at F0=3 GHz, OSR 64, 8192-pt FFT");

  const double correct = ev.snr_modulator_db(chip.cal.key);
  // analock-verify: allow(taint-sink) experiment tables include the calibrated key column
  std::printf("correct key %s : SNR = %.2f dB\n",
              chip.cal.key.to_hex().c_str(), correct);

  sim::Rng key_rng(777);
  std::vector<double> invalid;
  int best_idx = -1;
  double best = -1e9;
  // ANALOCK_BENCH_TRIALS scales the invalid-key sweep for CI smoke runs.
  const int n_invalid = static_cast<int>(bench::trials_budget(100));
  std::printf("%-6s %-20s %10s\n", "index", "key", "SNR [dB]");
  for (int i = 0; i < n_invalid; ++i) {
    const lock::Key64 k = lock::Key64::random(key_rng);
    const double snr = bench::display_snr(ev.snr_modulator_db(k));
    invalid.push_back(snr);
    if (snr > best) {
      best = snr;
      best_idx = i;
    }
    // analock-verify: allow(taint-sink) experiment tables include the calibrated key column
    std::printf("%-6d %-20s %10.2f\n", i, k.to_hex().c_str(), snr);
  }

  const auto below_zero =
      std::count_if(invalid.begin(), invalid.end(),
                    [](double s) { return s < 0.0; });
  const auto above_10 =
      std::count_if(invalid.begin(), invalid.end(),
                    [](double s) { return s > 10.0; });
  std::printf("\nsummary: correct=%.2f dB | invalid max=%.2f dB (index %d, "
              "the 'deceptive' key) | %lld/%d below 0 dB | %lld/%d above "
              "10 dB\n",
              correct, best, best_idx, (long long)below_zero, n_invalid,
              (long long)above_10, n_invalid);
  std::printf("paper:   correct>40 dB | all invalid <30 dB | most <0 dB | "
              "4 above 10 dB, deceptive ~30 dB\n");
}

}  // namespace

int main() {
  analock::bench::Harness h("bench_fig07_snr_modulator");
  h.add_case("fig07", run_fig07);
  return h.run();
}
