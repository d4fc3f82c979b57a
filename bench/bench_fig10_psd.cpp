// Experiment E4 (paper Fig. 10): power spectral density at the modulator
// output for the correct key (deep noise-shaping notch at fs/4, shaped
// noise rising away from it) and the deceptive invalid key (no noise
// shaping at all).
#include <cmath>
#include <vector>

#include "bench_common.h"

namespace {
// Streams this bench's event record to bench_fig10_psd.jsonl (see ObsSession).
const analock::bench::ObsSession kObsSession("bench_fig10_psd");
}  // namespace
#include "dsp/spectrum.h"
#include "par/thread_pool.h"
#include "rf/receiver.h"
#include "rf/receiver_batch.h"

namespace {

using namespace analock;

dsp::Periodogram capture_psd(const bench::Chip& chip,
                             const lock::Key64& key) {
  const rf::Standard& mode = rf::standard_max_3ghz();
  const rf::ReceiverConfig config = lock::decode_key(key, mode.digital_mode);
  rf::ReceiverBatch rx(mode, chip.pv, chip.rng, {&config, 1});
  const auto in = rf::make_test_tone(mode, -25.0, 2048 + 8192);
  return dsp::Periodogram(
      rx.capture_modulator(in, 2048, par::ThreadPool::shared()), mode.fs_hz());
}

/// Average PSD (dB) over `width` bins centered at `center + offset`.
double psd_db(const dsp::Periodogram& p, std::size_t center, int offset,
              int width) {
  double acc = 0.0;
  for (int d = -width / 2; d <= width / 2; ++d) {
    acc += p.power()[static_cast<std::size_t>(
        static_cast<int>(center) + offset + d)];
  }
  acc /= static_cast<double>(width + 1);
  return acc > 0.0 ? 10.0 * std::log10(acc) : -200.0;
}

void run_fig10() {
  const rf::Standard& mode = rf::standard_max_3ghz();
  auto chip = bench::make_calibrated_chip(mode);

  bench::banner("Fig. 10 — PSD at modulator output, correct vs deceptive key",
                "8192-pt periodogram around fs/4; dB per averaged bin");

  const auto p_good = capture_psd(chip, chip.cal.key);
  const auto p_bad =
      capture_psd(chip, bench::make_deceptive_key(chip.cal.key));
  const std::size_t center = p_good.bin_of(mode.fs_hz() / 4.0);

  std::printf("%14s %14s %14s\n", "f - fs/4 [MHz]", "correct [dB]",
              "deceptive [dB]");
  const double bin_mhz = p_good.bin_hz() / 1e6;
  for (int offset = -1024; offset <= 1024; offset += 64) {
    std::printf("%14.1f %14.1f %14.1f\n",
                static_cast<double>(offset) * bin_mhz,
                psd_db(p_good, center, offset, 16),
                psd_db(p_bad, center, offset, 16));
  }

  // Noise-shaping contrast: out-of-band shaped noise vs in-band floor.
  const double f0 = mode.fs_hz() / 4.0;
  const double half = mode.fs_hz() / 256.0;
  auto contrast = [&](const dsp::Periodogram& p) {
    const double in = p.band_power(f0 - half, f0 - half / 4.0);
    const double out = p.band_power(f0 + 8.0 * half, f0 + 24.0 * half);
    return 10.0 * std::log10(out / std::max(in, 1e-30));
  };
  std::printf("\nsummary: noise-shaping contrast (out-of-band hump vs "
              "in-band floor): correct = %.1f dB, deceptive = %.1f dB\n",
              contrast(p_good), contrast(p_bad));
  std::printf("paper:   correct PSD shows the BP sigma-delta noise-shaping "
              "notch; for the invalid key there is no noise shaping\n");
}

}  // namespace

int main() {
  analock::bench::Harness h("bench_fig10_psd");
  h.add_case("fig10", run_fig10);
  return h.run();
}
