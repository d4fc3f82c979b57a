// Experiment E5 (paper Fig. 11): receiver-output SNR versus input power
// with the three per-segment VGLNA gain settings, for the correct key and
// the deceptive invalid key. Input swept -85..0 dBm in 5 dB steps;
// segments [-85:-45], [-60:-20], [-40:0] dBm.
#include "bench_common.h"

namespace {
// Streams this bench's event record to bench_fig11_dynamic_range.jsonl (see ObsSession).
const analock::bench::ObsSession kObsSession("bench_fig11_dynamic_range");
}  // namespace
#include "calib/calibrator.h"

namespace {

using namespace analock;
using lock::Key64;
using L = lock::KeyLayout;

void run_fig11() {
  const rf::Standard& mode = rf::standard_max_3ghz();
  auto chip = bench::make_calibrated_chip(mode);
  auto ev = bench::make_evaluator(mode, chip);

  bench::banner(
      "Fig. 11 — SNR vs input power with per-segment VGLNA gains",
      "segments [-85:-45]/[-60:-20]/[-40:0] dBm; correct vs deceptive key");

  std::printf("VGLNA codes per segment: high-sens=%u mid=%u low=%u\n\n",
              chip.cal.vglna_per_segment[0], chip.cal.vglna_per_segment[1],
              chip.cal.vglna_per_segment[2]);

  const Key64 deceptive = bench::make_deceptive_key(chip.cal.key);
  std::printf("%8s", "P [dBm]");
  for (std::size_t s = 0; s < calib::kInputSegments.size(); ++s) {
    std::printf("  seg%zu-ok[dB] seg%zu-bad[dB]", s, s);
  }
  std::printf("\n");

  for (double dbm = -85.0; dbm <= 0.01; dbm += 5.0) {
    std::printf("%8.0f", dbm);
    for (std::size_t s = 0; s < calib::kInputSegments.size(); ++s) {
      const auto& segment = calib::kInputSegments[s];
      if (dbm < segment.lo_dbm - 1e-9 || dbm > segment.hi_dbm + 1e-9) {
        std::printf("  %11s %11s", "-", "-");
        continue;
      }
      const Key64 good = chip.cal.key.with_field(
          L::kVglnaGain, chip.cal.vglna_per_segment[s]);
      const Key64 bad =
          deceptive.with_field(L::kVglnaGain, chip.cal.vglna_per_segment[s]);
      // analock-verify: allow(taint-sink) experiment tables include the calibrated key column
      std::printf("  %11.1f %11.1f",
                  bench::display_snr(ev.snr_receiver_db(good, dbm)),
                  bench::display_snr(ev.snr_receiver_db(bad, dbm)));
    }
    std::printf("\n");
  }

  std::printf("\npaper: unlocked circuit ramps to >40 dB within each "
              "segment; the locked circuit behaves very differently across "
              "the whole input range\n");
}

}  // namespace

int main() {
  analock::bench::Harness h("bench_fig11_dynamic_range");
  h.add_case("fig11", run_fig11);
  return h.run();
}
