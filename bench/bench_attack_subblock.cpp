// Experiment E7c (paper Section IV.B.3 / VI.B.1): sub-block
// divide-and-conquer attack — per-field optimization in isolation vs in
// conditioned (calibration) order, demonstrating why the internal
// feedback loop defeats divide-and-conquer key recovery.
#include "attack/subblock.h"
#include "bench_common.h"

namespace {
// Streams this bench's event record to bench_attack_subblock.jsonl (see ObsSession).
const analock::bench::ObsSession kObsSession("bench_attack_subblock");
}  // namespace

namespace {

using namespace analock;

void run_subblock() {
  const rf::Standard& mode = rf::standard_max_3ghz();
  auto chip = bench::make_calibrated_chip(mode);
  auto ev = bench::make_evaluator(mode, chip);

  bench::banner("Sec. IV.B.3 — sub-block divide-and-conquer attack",
                "per-field optima: isolated (others random) vs conditioned");

  attack::SubBlockAttack attack(ev, sim::Rng(333));
  const auto r = attack.run(chip.cal.key);

  std::printf("%-12s %10s %12s %12s %12s\n", "field", "true code",
              "isolated", "conditioned", "iso SNR[dB]");
  for (const auto& f : r.fields) {
    std::printf("%-12s %10llu %12llu %12llu %12.1f\n", f.name,
                (unsigned long long)f.reference_code,
                (unsigned long long)f.isolated_best_code,
                (unsigned long long)f.conditioned_best_code,
                f.isolated_snr_db);
  }
  std::printf("\nassembled-from-isolated key: rx SNR = %.1f dB, SFDR = %.1f "
              "dB -> %s\n",
              bench::display_snr(r.assembled_snr_db),
              bench::display_snr(r.assembled_sfdr_db),
              r.assembled_unlocks ? "UNLOCKS (!)" : "stays locked");
  std::printf("conditioned-order pass     : rx SNR = %.1f dB\n",
              bench::display_snr(r.conditioned_snr_db));
  std::printf("trials: %llu (sim cost %.0f h at the paper's per-trial "
              "times)\n",
              (unsigned long long)r.trials, r.cost.simulation_hours());
  std::printf("\npaper: sub-block calibration is impossible because of the "
              "internal feedback loops; a sub-block is only tunable once "
              "the rest of the loop is conditioned appropriately\n");
}

}  // namespace

int main() {
  analock::bench::Harness h("bench_attack_subblock");
  h.add_case("subblock", run_subblock);
  return h.run();
}
