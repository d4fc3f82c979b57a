// Fault-resilience sweep (robustness campaign): injects seeded
// measurement, PUF, and channel faults into the calibration flow and the
// remote-activation protocol, then compares yield with the hardening
// machinery disabled vs enabled.
//
//   table 1 — calibration yield vs measurement-fault rate, plain vs
//             hardened (median-of-N votes, retry budget, spec recovery);
//   table 2 — remote-activation success vs channel stress, one-shot
//             install vs the CRC-framed retry session;
//   table 3 — PUF-backed key recovery vs response flip rate, single
//             regeneration vs majority-voted regeneration.
//
// Every cell runs a deterministic campaign forked from kBenchSeed, so the
// tables regenerate bit-exactly; the reproducibility self-check at the
// top draws the same campaign twice and compares CRCs of the raw fault
// stream.
#include <algorithm>
#include <cstdint>
#include <vector>

#include "bench_common.h"
#include "fault/crc32.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "fault/lossy_channel.h"
#include "lock/key_manager.h"
#include "lock/puf.h"
#include "lock/remote_activation.h"
#include "lock/remote_activation_session.h"

namespace {
// Streams this bench's event record to bench_fault_resilience.jsonl.
const analock::bench::ObsSession kObsSession("bench_fault_resilience");
}  // namespace

namespace {

using namespace analock;

// ------------------------------------------------------ reproducibility --

// Draws a mixed fault stream from a fresh injector and fingerprints it.
std::uint32_t campaign_fingerprint(const fault::FaultPlan& plan) {
  fault::FaultInjector injector(plan);
  std::vector<std::uint8_t> stream;
  for (int i = 0; i < 256; ++i) {
    const double m = injector.perturb_measurement("bench.fingerprint", 42.0);
    const auto bits = static_cast<std::uint64_t>(m * 1e6);
    for (int b = 0; b < 8; ++b) {
      stream.push_back(static_cast<std::uint8_t>(bits >> (8 * b)));
    }
    stream.push_back(injector.perturb_puf_response((i & 1) != 0) ? 1 : 0);
    stream.push_back(injector.draw_msg_loss() ? 1 : 0);
    stream.push_back(static_cast<std::uint8_t>(injector.draw_msg_delay()));
  }
  const std::uint64_t word = injector.perturb_word(0x5555AAAA5555AAAAull);
  for (int b = 0; b < 8; ++b) {
    stream.push_back(static_cast<std::uint8_t>(word >> (8 * b)));
  }
  return fault::crc32(stream);
}

bool check_reproducibility() {
  fault::FaultPlan plan;
  plan.seed = bench::kBenchSeed;
  plan.campaign_id = "fingerprint";
  plan.meas_spike_prob = 0.2;
  plan.meas_dropout_prob = 0.1;
  plan.stuck_at0_bits = 2;
  plan.stuck_at1_bits = 1;
  plan.puf_flip_prob = 0.05;
  plan.msg_loss_prob = 0.2;
  plan.msg_corrupt_prob = 0.1;
  plan.msg_delay_prob = 0.1;
  const std::uint32_t first = campaign_fingerprint(plan);
  const std::uint32_t second = campaign_fingerprint(plan);
  std::printf("campaign fingerprint: crc32=%08x, replay crc32=%08x -> %s\n",
              first, second,
              first == second ? "byte-for-byte reproducible" : "MISMATCH");
  obs::event("fault.reproducibility", {{"crc32", std::uint64_t{first}},
                                       {"replay_crc32", std::uint64_t{second}},
                                       {"reproducible", first == second}});
  return first == second;
}

// ------------------------------------------------- calibration yield -----

struct YieldCell {
  double rate = 0.0;
  int chips = 0;
  int plain_ok = 0;
  int hard_ok = 0;
  unsigned hard_retries = 0;
  std::uint64_t faults = 0;
};

calib::CalibrationResult calibrate_arm(const rf::Standard& standard,
                                       const sim::ProcessVariation& pv,
                                       const sim::Rng& chip_rng,
                                       const fault::FaultPlan& plan,
                                       bool harden) {
  calib::Calibrator::Options opt;
  opt.tune_vglna_segments = false;  // the fault sweep targets steps 6-14
  opt.refine_after_vglna = false;
  opt.bias_passes = 1;
  opt.harden = harden;
  calib::Calibrator calibrator(standard, pv, chip_rng, opt);
  fault::FaultInjector injector(plan);
  if (plan.active()) calibrator.set_fault_injector(&injector);
  return calibrator.run();
}

std::vector<YieldCell> sweep_calibration_yield(int chips) {
  const rf::Standard& standard = rf::standard_bluetooth();
  bench::banner("Fault sweep 1 — calibration yield vs measurement faults",
                "spike+dropout campaign on the ATE oracle; plain vs "
                "hardened (median votes, retry budget, spec recovery)");

  const double rates[] = {0.0, 0.15, 0.30, 0.45};
  std::vector<YieldCell> cells;
  std::printf("%8s %6s %12s %12s %14s %10s\n", "rate", "chips", "plain yield",
              "hard yield", "hard retries", "faults");
  for (std::size_t r = 0; r < std::size(rates); ++r) {
    YieldCell cell;
    cell.rate = rates[r];
    cell.chips = chips;
    for (int c = 0; c < chips; ++c) {
      sim::Rng master(bench::kBenchSeed);
      const auto pv =
          sim::ProcessVariation::monte_carlo(master, static_cast<std::uint64_t>(c));
      const sim::Rng chip_rng =
          master.fork("fault-chip", static_cast<std::uint64_t>(c));
      fault::FaultPlan plan;
      plan.seed = bench::kBenchSeed + 7919 * r + static_cast<std::uint64_t>(c);
      plan.campaign_id = "calib-yield";
      plan.meas_spike_prob = cell.rate;
      plan.meas_spike_sigma_db = 8.0;
      plan.meas_dropout_prob = cell.rate * 0.5;

      const auto plain = calibrate_arm(standard, pv, chip_rng, plan, false);
      const auto hard = calibrate_arm(standard, pv, chip_rng, plan, true);
      cell.plain_ok += plain.success ? 1 : 0;
      cell.hard_ok += hard.success ? 1 : 0;
      cell.hard_retries += hard.total_retries;
      cell.faults += plain.faults_injected + hard.faults_injected;
    }
    std::printf("%8.2f %6d %11.0f%% %11.0f%% %14u %10llu\n", cell.rate,
                cell.chips, 100.0 * cell.plain_ok / cell.chips,
                100.0 * cell.hard_ok / cell.chips, cell.hard_retries,
                static_cast<unsigned long long>(cell.faults));
    obs::event("fault.sweep.calibration",
               {{"rate", cell.rate},
                {"chips", cell.chips},
                {"plain_ok", cell.plain_ok},
                {"hardened_ok", cell.hard_ok},
                {"hardened_retries", cell.hard_retries},
                {"faults_injected", cell.faults}});
    cells.push_back(cell);
  }
  return cells;
}

// ---------------------------------------------- activation resilience ----

struct ActivationCell {
  double stress = 0.0;
  int sessions = 0;
  int oneshot_ok = 0;
  int session_ok = 0;
  double mean_attempts = 0.0;
};

std::vector<ActivationCell> sweep_activation(int sessions) {
  bench::banner("Fault sweep 2 — remote activation vs channel stress",
                "loss/corruption/delay campaign on the design-house link; "
                "one-shot install vs CRC-framed retry session");

  const double stresses[] = {0.0, 0.15, 0.30, 0.45};
  std::vector<ActivationCell> cells;
  std::printf("%8s %9s %12s %13s %14s\n", "stress", "sessions", "one-shot",
              "with retries", "mean attempts");
  for (std::size_t s = 0; s < std::size(stresses); ++s) {
    ActivationCell cell;
    cell.stress = stresses[s];
    cell.sessions = sessions;
    unsigned long long attempts = 0;
    for (int i = 0; i < sessions; ++i) {
      fault::FaultPlan plan;
      plan.seed = bench::kBenchSeed + 104729 * s + static_cast<std::uint64_t>(i);
      plan.campaign_id = "activation";
      plan.msg_loss_prob = cell.stress;
      plan.msg_corrupt_prob = cell.stress * 0.5;
      plan.msg_delay_prob = cell.stress * 0.5;
      plan.msg_delay_max_ticks = 8;  // > ack timeout: a delayed ack is lost

      lock::ArbiterPuf puf(sim::Rng(900 + static_cast<std::uint64_t>(i)));
      lock::RemoteActivationChip chip(puf, 2);
      const lock::Key64 config{0x1e2bb271ed7d914bull ^
                               (static_cast<std::uint64_t>(i) << 8)};

      // One-shot arm: fire the single wrapped install through the lossy
      // channel with no framing, timeout, or retry around it.
      {
        fault::FaultInjector injector(plan);
        fault::LossyChannel channel(&injector);
        lock::RemoteActivationChipEndpoint endpoint(chip);
        lock::RemoteActivationSession::Options once;
        once.max_attempts = 1;
        lock::RemoteActivationSession session(endpoint, channel, once,
                                              plan.seed);
        if (session.activate(0, config, chip.public_key()).success) {
          ++cell.oneshot_ok;
        }
      }
      // Retry arm: same campaign shape, full session semantics (slot 1 so
      // the arms don't share provisioning state on the chip): the default
      // 8 attempts and the session's fixed ack timeout, backoff and jitter.
      {
        fault::FaultInjector injector(plan);
        fault::LossyChannel channel(&injector);
        lock::RemoteActivationChipEndpoint endpoint(chip);
        lock::RemoteActivationSession session(
            endpoint, channel, lock::RemoteActivationSession::Options{},
            plan.seed);
        const auto result = session.activate(1, config, chip.public_key());
        if (result.success) ++cell.session_ok;
        attempts += result.attempts;
      }
    }
    cell.mean_attempts = static_cast<double>(attempts) / sessions;
    std::printf("%8.2f %9d %11.0f%% %12.0f%% %14.1f\n", cell.stress,
                cell.sessions, 100.0 * cell.oneshot_ok / cell.sessions,
                100.0 * cell.session_ok / cell.sessions, cell.mean_attempts);
    obs::event("fault.sweep.activation",
               {{"stress", cell.stress},
                {"sessions", cell.sessions},
                {"oneshot_ok", cell.oneshot_ok},
                {"session_ok", cell.session_ok},
                {"mean_attempts", cell.mean_attempts}});
    cells.push_back(cell);
  }
  return cells;
}

// ----------------------------------------------------- PUF key recovery --

void sweep_puf_recovery(int power_ons) {
  bench::banner("Fault sweep 3 — PUF-backed key recovery vs flip rate",
                "response bit-flips across power-ons; single regeneration "
                "vs 5-way majority-voted regeneration");

  const double flip_rates[] = {0.0, 0.05, 0.15, 0.30};
  std::printf("%10s %10s %14s %12s\n", "flip rate", "power-ons", "single ok",
              "voted ok");
  for (std::size_t f = 0; f < std::size(flip_rates); ++f) {
    int single_ok = 0;
    int voted_ok = 0;
    const lock::Key64 config{0x0F0F0F0F12345678ull};
    for (int arm = 0; arm < 2; ++arm) {
      lock::ArbiterPuf puf(sim::Rng(500));
      lock::PufXorScheme scheme(puf, 1, arm == 0 ? 1u : 5u);
      scheme.provision(0, config);  // enrollment happens on a clean floor
      fault::FaultPlan plan;
      plan.seed = bench::kBenchSeed + 31 * f;
      plan.campaign_id = "puf-recovery";
      plan.puf_flip_prob = flip_rates[f];
      fault::FaultInjector injector(plan);
      if (plan.active()) puf.set_fault_injector(&injector);
      int ok = 0;
      for (int p = 0; p < power_ons; ++p) {
        const auto loaded = scheme.load(0);
        if (loaded.has_value() && *loaded == config) ++ok;
      }
      (arm == 0 ? single_ok : voted_ok) = ok;
    }
    std::printf("%10.2f %10d %13.0f%% %11.0f%%\n", flip_rates[f], power_ons,
                100.0 * single_ok / power_ons, 100.0 * voted_ok / power_ons);
    obs::event("fault.sweep.puf",
               {{"flip_rate", flip_rates[f]},
                {"power_ons", power_ons},
                {"single_ok", single_ok},
                {"voted_ok", voted_ok}});
  }
}

// ------------------------------------------------------------ harness ----

void run_fault_resilience() {
  bench::banner("Fault-resilience campaign",
                "deterministic seeded fault injection across calibration, "
                "activation, and PUF key recovery");
  const bool reproducible = check_reproducibility();

  // ANALOCK_BENCH_TRIALS scales the whole sweep for CI smoke runs.
  const int budget =
      static_cast<int>(bench::trials_budget(8));
  const int chips = std::clamp(budget, 2, 16);
  const int sessions = std::clamp(budget * 5, 10, 80);
  const int power_ons = std::clamp(budget * 5, 10, 80);

  const auto yield = sweep_calibration_yield(chips);
  const auto activation = sweep_activation(sessions);
  sweep_puf_recovery(power_ons);

  // Headline: under injected faults, hardening must strictly raise the
  // calibration yield (acceptance criterion of the robustness campaign).
  int faulted_plain = 0;
  int faulted_hard = 0;
  int faulted_chips = 0;
  for (const auto& cell : yield) {
    if (cell.rate <= 0.0) continue;
    faulted_plain += cell.plain_ok;
    faulted_hard += cell.hard_ok;
    faulted_chips += cell.chips;
  }
  int stressed_oneshot = 0;
  int stressed_session = 0;
  int stressed_total = 0;
  for (const auto& cell : activation) {
    if (cell.stress <= 0.0) continue;
    stressed_oneshot += cell.oneshot_ok;
    stressed_session += cell.session_ok;
    stressed_total += cell.sessions;
  }
  std::printf(
      "\nsummary: campaign reproducible=%s | faulted calibration yield "
      "%d/%d plain vs %d/%d hardened (%s) | stressed activation %d/%d "
      "one-shot vs %d/%d with session retries\n",
      reproducible ? "yes" : "NO", faulted_plain, faulted_chips, faulted_hard,
      faulted_chips,
      faulted_hard > faulted_plain ? "hardening strictly better"
                                   : "HARDENING NOT BETTER",
      stressed_oneshot, stressed_total, stressed_session, stressed_total);
  obs::event("fault.summary",
             {{"reproducible", reproducible},
              {"faulted_chips", faulted_chips},
              {"plain_yield_ok", faulted_plain},
              {"hardened_yield_ok", faulted_hard},
              {"hardening_strictly_better", faulted_hard > faulted_plain},
              {"stressed_sessions", stressed_total},
              {"oneshot_ok", stressed_oneshot},
              {"session_ok", stressed_session}});
}

}  // namespace

int main() {
  analock::bench::Harness h("bench_fault_resilience");
  h.add_case("fault_resilience", run_fault_resilience);
  return h.run();
}
