// Experiment E7b (paper Section IV.B.3 / VI.B.1): multi-objective
// optimization attacks — coordinate descent over the key sub-fields and a
// genetic algorithm over raw keys, from cold starts and with
// reverse-engineered mode bits, plus the warm-start (gradient) attack
// from a key leaked off another chip.
#include "attack/multi_objective.h"
#include "attack/warm_start.h"
#include "bench_common.h"

namespace {
// Streams this bench's event record to bench_attack_multiobjective.jsonl (see ObsSession).
const analock::bench::ObsSession kObsSession("bench_attack_multiobjective");
}  // namespace

namespace {

using namespace analock;

void report(const char* name, const attack::MultiObjectiveResult& r) {
  std::printf("  %-34s trials=%5llu success=%-3s screen=%6.1f dB "
              "rx=%6.1f dB sfdr=%6.1f dB | sim cost %.0f h\n",
              name, (unsigned long long)r.trials, r.success ? "YES" : "no",
              r.best_screen_snr_db, bench::display_snr(r.receiver_snr_db),
              bench::display_snr(r.sfdr_db), r.cost.simulation_hours());
}

void run_multiobjective() {
  const rf::Standard& mode = rf::standard_max_3ghz();
  auto victim = bench::make_calibrated_chip(mode, 0);
  auto donor = bench::make_calibrated_chip(mode, 1);
  auto ev = bench::make_evaluator(mode, victim);

  bench::banner("Sec. IV.B.3 — multi-objective optimization attacks",
                "coordinate descent / genetic / warm-start vs the oracle");

  {
    attack::CoordinateDescentAttack cd(ev, sim::Rng(111));
    attack::MultiObjectiveOptions options;
    options.max_trials = bench::trials_budget(800);
    options.passes = 2;
    // analock-verify: allow(taint-call) experiment tables include the recovered key column
    report("coordinate descent, cold start", cd.run(options));
  }
  {
    attack::CoordinateDescentAttack cd(ev, sim::Rng(112));
    attack::MultiObjectiveOptions options;
    options.max_trials = bench::trials_budget(2500);
    options.passes = 3;
    options.force_mission_mode = true;
    // analock-verify: allow(taint-call) experiment tables include the recovered key column
    report("coordinate descent, known modes", cd.run(options));
  }
  {
    attack::GeneticAttack ga(ev, sim::Rng(113));
    attack::GeneticOptions options;
    options.max_trials = bench::trials_budget(1500);
    // analock-verify: allow(taint-call) experiment tables include the recovered key column
    report("genetic algorithm, cold start", ga.run(options));
  }
  {
    attack::GeneticAttack ga(ev, sim::Rng(114));
    attack::GeneticOptions options;
    options.max_trials = bench::trials_budget(1500);
    options.force_mission_mode = true;
    // analock-verify: allow(taint-call) experiment tables include the recovered key column
    report("genetic algorithm, known modes", ga.run(options));
  }
  {
    attack::WarmStartAttack ws(ev, sim::Rng(115));
    attack::WarmStartOptions options;
    options.max_trials = bench::trials_budget(1200);
    const auto r = ws.run(donor.cal.key, options);
    std::printf("  %-34s trials=%5llu success=%-3s start=%6.1f dB "
                "refined=%6.1f dB rx=%6.1f dB moved %u bits | sim cost "
                "%.0f h\n",
                "warm start from donor-chip key",
                (unsigned long long)r.trials, r.success ? "YES" : "no",
                r.start_snr_db, r.best_screen_snr_db,
                bench::display_snr(r.receiver_snr_db), r.hamming_moved,
                r.cost.simulation_hours());
  }

  std::printf("\npaper: cold-start searches stall (few bits relate "
              "smoothly to any performance); a leaked per-chip key is the "
              "dangerous starting point; every trial costs ~20 simulated "
              "minutes unless the attacker re-fabricates\n");
}

}  // namespace

int main() {
  analock::bench::Harness h("bench_attack_multiobjective");
  h.add_case("multiobjective", run_multiobjective);
  return h.run();
}
