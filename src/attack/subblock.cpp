#include "attack/subblock.h"

#include <algorithm>

#include "lock/batch_evaluator.h"
#include "lock/key_layout.h"
#include "obs/trace.h"

namespace analock::attack {

namespace {

using L = lock::KeyLayout;

}  // namespace

SubBlockResult SubBlockAttack::run(const lock::Key64& reference_key) {
  ANALOCK_SPAN("attack.subblock");
  obs::Convergence convergence("subblock");
  lock::BatchEvaluator batch(*evaluator_);
  SubBlockResult result;

  // One batched transient measures a whole field sweep; bookkeeping then
  // replays in code order, so counters and convergence points match the
  // code-by-code loop this replaced.
  auto sweep_field = [&](lock::Key64 base, sim::BitRange range,
                         double& best_snr_out) {
    const std::uint64_t max_value = range.max_value();
    const std::uint64_t stride = std::max<std::uint64_t>(
        1, (max_value + 1) / kMaxTrialsPerField);
    std::vector<std::uint64_t> codes;
    std::vector<lock::Key64> candidates;
    for (std::uint64_t code = 0; code <= max_value; code += stride) {
      codes.push_back(code);
      candidates.push_back(base.with_field(range, code));
    }
    const auto snrs = batch.snr_modulator_db(candidates);
    std::uint64_t best_code = 0;
    double best_snr = -300.0;
    for (std::size_t i = 0; i < codes.size(); ++i) {
      ++result.trials;
      ++result.cost.snr_trials;
      obs::count("attack.subblock.trials");
      convergence.observe(result.trials, snrs[i]);
      if (snrs[i] > best_snr) {
        best_snr = snrs[i];
        best_code = codes[i];
      }
    }
    best_snr_out = best_snr;
    return best_code;
  };

  // Phase 1 — isolated: every other field random (the attacker's chip in
  // an arbitrary state while they probe one knob).
  const lock::Key64 random_base =
      lock::force_mission_mode(lock::Key64::random(rng_));
  lock::Key64 assembled = random_base;
  for (const L::Field& f : L::kTuningFields) {
    SubBlockFieldResult fr;
    fr.name = f.name;
    fr.reference_code = reference_key.field(f.range);
    fr.isolated_best_code =
        sweep_field(random_base, f.range, fr.isolated_snr_db);
    assembled = assembled.with_field(f.range, fr.isolated_best_code);
    obs::event("attack.subblock.field",
               {{"field", f.name},
                {"phase", "isolated"},
                {"best_code", fr.isolated_best_code},
                {"reference_code", fr.reference_code},
                {"snr_db", fr.isolated_snr_db}});
    result.fields.push_back(fr);
  }
  result.assembled_key = assembled;
  result.assembled_snr_db = evaluator_->snr_receiver_db(assembled);
  result.assembled_sfdr_db = evaluator_->sfdr_db(assembled);
  ++result.cost.snr_trials;
  ++result.cost.sfdr_trials;
  result.trials += 2;
  const auto& spec = evaluator_->standard().spec;
  result.assembled_unlocks = result.assembled_snr_db >= spec.min_snr_db &&
                             result.assembled_sfdr_db >= spec.min_sfdr_db;

  // Phase 2 — conditioned: same per-field sweeps, but run in calibration
  // order on a base that keeps every previously-found field (showing that
  // the blocks are only tunable once the loop context is right).
  lock::Key64 conditioned = reference_key;
  for (std::size_t i = 0; i < L::kTuningFields.size(); ++i) {
    // Start each sweep from the reference key with THIS field scrambled:
    // the sweep must recover it from the conditioned context.
    const L::Field& f = L::kTuningFields[i];
    lock::Key64 base = conditioned.with_field(
        f.range, rng_.uniform_below(f.range.max_value() + 1));
    double snr = -300.0;
    const std::uint64_t code = sweep_field(base, f.range, snr);
    result.fields[i].conditioned_best_code = code;
    result.fields[i].conditioned_snr_db = snr;
    conditioned = base.with_field(f.range, code);
    obs::event("attack.subblock.field",
               {{"field", f.name},
                {"phase", "conditioned"},
                {"best_code", code},
                {"reference_code", result.fields[i].reference_code},
                {"snr_db", snr}});
  }
  result.conditioned_snr_db = evaluator_->snr_receiver_db(conditioned);
  ++result.cost.snr_trials;
  ++result.trials;
  return result;
}

}  // namespace analock::attack
