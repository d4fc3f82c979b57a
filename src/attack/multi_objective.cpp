#include "attack/multi_objective.h"

#include <algorithm>
#include <array>
#include <vector>

#include "lock/key_layout.h"
#include "obs/trace.h"

namespace analock::attack {

namespace {

using L = lock::KeyLayout;

/// Sub-fields a netlist-level attacker can identify as distinct knobs.
constexpr std::array<sim::BitRange, 10> kTuningFields{
    L::kVglnaGain, L::kCapCoarse, L::kCapFine,    L::kQEnh,
    L::kGminBias,  L::kDacBias,   L::kPreampBias, L::kCompBias,
    L::kLoopDelay, L::kOutBuffer};

/// Mode bits, swept too unless mission mode is forced.
constexpr std::array<unsigned, 4> kModeBits{
    L::kFeedbackEnable, L::kCompClockEnable, L::kGminEnable,
    L::kBufferInPath};

/// Verifies a candidate against the full specification.
void finalize(lock::LockEvaluator& evaluator, MultiObjectiveResult& result) {
  result.receiver_snr_db = evaluator.snr_receiver_db(result.best_key);
  ++result.cost.snr_trials;
  ++result.trials;
  const auto& spec = evaluator.standard().spec;
  if (result.receiver_snr_db >= spec.min_snr_db) {
    result.sfdr_db = evaluator.sfdr_db(result.best_key);
    ++result.cost.sfdr_trials;
    ++result.trials;
    result.success = result.sfdr_db >= spec.min_sfdr_db;
  }
}

}  // namespace

MultiObjectiveResult CoordinateDescentAttack::run(
    const MultiObjectiveOptions& options) {
  lock::Key64 start = lock::Key64::random(rng_);
  if (options.force_mission_mode) start = lock::force_mission_mode(start);
  return run_from(start, options);
}

MultiObjectiveResult CoordinateDescentAttack::run_from(
    lock::Key64 start, const MultiObjectiveOptions& options) {
  ANALOCK_SPAN("attack.coordinate_descent");
  obs::Convergence convergence("coordinate_descent");
  MultiObjectiveResult result;
  lock::Key64 key = options.force_mission_mode
                        ? lock::force_mission_mode(start)
                        : start;

  auto measure = [&](const lock::Key64& k) {
    ++result.trials;
    ++result.cost.snr_trials;
    obs::count("attack.coordinate_descent.trials");
    const double snr = evaluator_->snr_modulator_db(k);
    convergence.observe(result.trials, snr);
    return snr;
  };

  double best = measure(key);
  for (std::size_t pass = 0;
       pass < options.passes && result.trials < options.max_trials; ++pass) {
    if (!options.force_mission_mode) {
      // Mode bits first: a bit at a time, keep a flip only if it helps.
      for (const unsigned bit : kModeBits) {
        if (result.trials >= options.max_trials) break;
        const lock::Key64 flipped = key.with_bit(bit, !key.bit(bit));
        const double snr = measure(flipped);
        if (snr > best) {
          best = snr;
          key = flipped;
        }
      }
      // Test mux: all four values.
      for (std::uint64_t v = 0; v < 4 && result.trials < options.max_trials;
           ++v) {
        const lock::Key64 cand = key.with_field(L::kTestMux, v);
        // Attacker-side hypothesis keys, no secret operand.
        if (cand == key) continue;
        const double snr = measure(cand);
        if (snr > best) {
          best = snr;
          key = cand;
        }
      }
    }
    for (const auto& field : kTuningFields) {
      if (result.trials >= options.max_trials) break;
      const std::uint64_t max_value = field.max_value();
      const std::uint64_t coarse =
          std::max<std::uint64_t>(1, (max_value + 1) / 8);
      std::uint64_t best_code = key.field(field);
      // Coarse grid.
      for (std::uint64_t code = 0;
           code <= max_value && result.trials < options.max_trials;
           code += coarse) {
        const double snr = measure(key.with_field(field, code));
        if (snr > best) {
          best = snr;
          best_code = code;
        }
      }
      // Local refinement.
      const std::uint64_t lo = best_code > coarse ? best_code - coarse : 0;
      const std::uint64_t hi = std::min(max_value, best_code + coarse);
      for (std::uint64_t code = lo;
           code <= hi && result.trials < options.max_trials; ++code) {
        if (code == best_code) continue;
        const double snr = measure(key.with_field(field, code));
        if (snr > best) {
          best = snr;
          best_code = code;
        }
      }
      key = key.with_field(field, best_code);
    }
  }

  result.best_key = key;
  result.best_screen_snr_db = best;
  finalize(*evaluator_, result);
  return result;
}

MultiObjectiveResult GeneticAttack::run(const GeneticOptions& options) {
  ANALOCK_SPAN("attack.genetic");
  obs::Convergence convergence("genetic");
  MultiObjectiveResult result;

  struct Individual {
    lock::Key64 key;
    double fitness = -300.0;
  };

  auto repair = [&](lock::Key64 k) {
    return options.force_mission_mode ? lock::force_mission_mode(k) : k;
  };
  auto measure = [&](const lock::Key64& k) {
    ++result.trials;
    ++result.cost.snr_trials;
    obs::count("attack.genetic.trials");
    const double snr = evaluator_->snr_modulator_db(k);
    convergence.observe(result.trials, snr);
    return snr;
  };

  std::vector<Individual> pop(options.population);
  for (auto& ind : pop) {
    ind.key = repair(lock::Key64::random(rng_));
    ind.fitness = measure(ind.key);
  }

  auto by_fitness = [](const Individual& a, const Individual& b) {
    return a.fitness > b.fitness;
  };
  std::sort(pop.begin(), pop.end(), by_fitness);

  auto tournament = [&]() -> const Individual& {
    const auto& a = pop[rng_.uniform_below(pop.size())];
    const auto& b = pop[rng_.uniform_below(pop.size())];
    return a.fitness >= b.fitness ? a : b;
  };

  while (result.trials + options.population <= options.max_trials) {
    std::vector<Individual> next;
    next.reserve(pop.size());
    for (std::size_t e = 0; e < options.elites && e < pop.size(); ++e) {
      next.push_back(pop[e]);
    }
    while (next.size() < pop.size()) {
      const Individual& pa = tournament();
      const Individual& pb = tournament();
      // Uniform crossover + per-bit mutation.
      const std::uint64_t mask = rng_.next_u64();
      std::uint64_t child =
          (pa.key.bits() & mask) | (pb.key.bits() & ~mask);
      for (unsigned bit = 0; bit < 64; ++bit) {
        if (rng_.bernoulli(options.mutation_per_bit)) child ^= 1ULL << bit;
      }
      Individual ind;
      ind.key = repair(lock::Key64{child});
      ind.fitness = measure(ind.key);
      next.push_back(ind);
    }
    pop = std::move(next);
    std::sort(pop.begin(), pop.end(), by_fitness);
  }

  result.best_key = pop.front().key;
  result.best_screen_snr_db = pop.front().fitness;
  finalize(*evaluator_, result);
  return result;
}

}  // namespace analock::attack
