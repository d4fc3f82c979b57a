// Experiment E2 (paper Fig. 8): transient output of the BP RF sigma-delta
// modulator for the correct key (an oversampled +/-1 bitstream) and the
// deceptive invalid key (an analog waveform — no analog-to-digital
// conversion happening).
#include <cmath>
#include <set>

#include "bench_common.h"

namespace {
// Streams this bench's event record to bench_fig08_transient.jsonl (see ObsSession).
const analock::bench::ObsSession kObsSession("bench_fig08_transient");
}  // namespace
#include "par/thread_pool.h"
#include "rf/receiver.h"
#include "rf/receiver_batch.h"

namespace {

using namespace analock;

struct TransientStats {
  std::size_t distinct_levels = 0;
  double rms = 0.0;
  double peak = 0.0;
  double bilevel_fraction = 0.0;
};

TransientStats run_key(const bench::Chip& chip, const lock::Key64& key,
                       std::vector<double>& first_samples) {
  const rf::Standard& mode = rf::standard_max_3ghz();
  const rf::ReceiverConfig config = lock::decode_key(key, mode.digital_mode);
  rf::ReceiverBatch rx(mode, chip.pv, chip.rng, {&config, 1});
  const auto in = rf::make_test_tone(mode, -25.0, 2048 + 2048);
  const std::vector<double> output =
      rx.capture_modulator(in, 2048, par::ThreadPool::shared());

  TransientStats stats;
  std::set<long long> levels;
  double sum_sq = 0.0;
  std::size_t bilevel = 0;
  for (const double y : output) {
    levels.insert(std::llround(y * 1e6));
    sum_sq += y * y;
    stats.peak = std::max(stats.peak, std::abs(y));
    if (y == 1.0 || y == -1.0) ++bilevel;
  }
  stats.distinct_levels = levels.size();
  stats.rms = std::sqrt(sum_sq / static_cast<double>(output.size()));
  stats.bilevel_fraction =
      static_cast<double>(bilevel) / static_cast<double>(output.size());
  first_samples.assign(output.begin(), output.begin() + 32);
  return stats;
}

void run_fig08() {
  const rf::Standard& mode = rf::standard_max_3ghz();
  auto chip = bench::make_calibrated_chip(mode);

  bench::banner("Fig. 8 — transient modulator output, correct vs deceptive key",
                "top: oversampled bitstream; bottom: analog waveform");

  std::vector<double> samples;
  const auto correct = run_key(chip, chip.cal.key, samples);
  std::printf("correct key: %zu distinct levels, rms=%.3f, peak=%.3f, "
              "bilevel=%.1f%%\n",
              correct.distinct_levels, correct.rms, correct.peak,
              100.0 * correct.bilevel_fraction);
  std::printf("  first samples:");
  for (const double s : samples) std::printf(" %+.0f", s);
  std::printf("\n");

  const auto deceptive =
      run_key(chip, bench::make_deceptive_key(chip.cal.key), samples);
  std::printf("deceptive key: %zu distinct levels, rms=%.3f, peak=%.3f, "
              "bilevel=%.1f%%\n",
              deceptive.distinct_levels, deceptive.rms, deceptive.peak,
              100.0 * deceptive.bilevel_fraction);
  std::printf("  first samples:");
  for (const double s : samples) std::printf(" %+.3f", s);
  std::printf("\n");

  std::printf("\nsummary: correct = 2-level bitstream (%.0f%% bilevel); "
              "deceptive = analog waveform (%zu levels, peak %.2f, below "
              "the 0.5 logic threshold)\n",
              100.0 * correct.bilevel_fraction, deceptive.distinct_levels,
              deceptive.peak);
  std::printf("paper:   correct output is an oversampled bitstream; invalid "
              "key #7 output is an analog waveform with no A/D conversion\n");
}

}  // namespace

int main() {
  analock::bench::Harness h("bench_fig08_transient");
  h.add_case("fig08", run_fig08);
  return h.run();
}
