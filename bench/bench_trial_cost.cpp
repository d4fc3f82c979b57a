// Experiment E7d (paper Section VI.B.1 timing claims): per-trial
// measurement cost. The paper reports ~20 minutes per SNR point, ~3 hours
// per input-range sweep and ~30 minutes per SFDR point on transistor-level
// simulation. These harness cases time the behavioral equivalents; each
// case carries the paper's projected silicon-simulation cost as a note in
// the BENCH_*.json artifact. The warm cases read on one evaluator, which
// reuses its stimuli from rep to rep and, for a reading that fits in one
// noise window (the modulator SNR; the default SFDR capture does not),
// its noise prefix. The `_cold` cases build a fresh evaluator per rep and
// pay for both, as the first reading of a calibration step does.
#include "attack/cost_model.h"
#include "bench_common.h"

namespace {
// Streams this bench's event record to bench_trial_cost.jsonl (see ObsSession).
const analock::bench::ObsSession kObsSession("bench_trial_cost");
}  // namespace

namespace {

using namespace analock;

struct Fixture {
  bench::Chip chip;
  lock::LockEvaluator ev;
  Fixture()
      : chip(bench::make_calibrated_chip(rf::standard_max_3ghz())),
        ev(bench::make_evaluator(rf::standard_max_3ghz(), chip)) {}
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

/// Case options carrying the paper's projected transistor-level cost for
/// the same measurement (surfaces in the BENCH_*.json notes).
analock::bench::CaseOptions paper_minutes(double minutes) {
  analock::bench::CaseOptions opts;
  opts.notes.emplace_back("paper_minutes", minutes);
  return opts;
}

analock::bench::CaseOptions paper_hours(double hours) {
  analock::bench::CaseOptions opts;
  opts.notes.emplace_back("paper_hours", hours);
  return opts;
}

}  // namespace

int main() {
  using analock::bench::do_not_optimize;
  analock::bench::Harness h("bench_trial_cost");
  // Calibrate the shared chip here, so that no case's first rep times a
  // whole calibration when the harness runs no warmup rep.
  (void)fixture();

  h.add_case("snr_modulator_point", [] {
    auto& f = fixture();
    double snr = f.ev.snr_modulator_db(f.chip.cal.key);
    do_not_optimize(snr);
  }, paper_minutes(20.0));

  h.add_case("snr_modulator_point_cold", [] {
    auto& f = fixture();
    auto ev = bench::make_evaluator(rf::standard_max_3ghz(), f.chip);
    double snr = ev.snr_modulator_db(f.chip.cal.key);
    do_not_optimize(snr);
  }, paper_minutes(20.0));

  h.add_case("snr_receiver_point", [] {
    auto& f = fixture();
    double snr = f.ev.snr_receiver_db(f.chip.cal.key);
    do_not_optimize(snr);
  }, paper_minutes(20.0));

  h.add_case("sfdr_point", [] {
    auto& f = fixture();
    double sfdr = f.ev.sfdr_db(f.chip.cal.key);
    do_not_optimize(sfdr);
  }, paper_minutes(30.0));

  h.add_case("sfdr_point_cold", [] {
    auto& f = fixture();
    auto ev = bench::make_evaluator(rf::standard_max_3ghz(), f.chip);
    double sfdr = ev.sfdr_db(f.chip.cal.key);
    do_not_optimize(sfdr);
  }, paper_minutes(30.0));

  h.add_case("input_range_sweep", [] {
    auto& f = fixture();
    for (double dbm = -85.0; dbm <= 0.01; dbm += 5.0) {
      double snr = f.ev.snr_receiver_db(f.chip.cal.key, dbm);
      do_not_optimize(snr);
    }
  }, paper_hours(3.0));

  h.add_case("full_spec_check", [] {
    auto& f = fixture();
    auto report = f.ev.evaluate(f.chip.cal.key);
    do_not_optimize(report);
  });

  return h.run();
}
