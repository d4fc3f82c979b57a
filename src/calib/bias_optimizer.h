// Calibration steps 11-14: loop-delay trim and the iterative bias search.
//
// Step 13 initializes the configuration words of Gmin, the feedback DAC,
// the pre-amplifier and the comparator to their nominal design values;
// step 14 improves them iteratively through the measured SNR of the BP RF
// sigma-delta modulator (coordinate descent: coarse sweep then local
// refinement per block, repeated for a few passes).
//
// A field sweep has two phases: the coarse grid over the field's range,
// then the refine window of +/-coarse_step around the best coarse code.
// Each phase takes its candidates' clean readings ahead of time through
// lock::BatchEvaluator (one modulator-SNR batch, then one SFDR batch over
// the candidates whose clean SNR clears the gate) and walks the scalar
// loop over them. The walk books every measurement the scalar loop makes,
// in its order, through LockEvaluator::charge, so the chosen codes, trial
// counts and fault draws are those of one scalar score() per candidate.
//
// Re-measure rule: the refine loop skips `code == best_code`, where
// best_code is the *running* best. When a refine code below the coarse
// best overtakes it, the loop reaches the coarse best later as an
// ordinary candidate and measures it again: one more SNR trial, plus an
// SFDR trial if its reading clears the gate. The re-measure reuses the
// clean reading of the coarse phase (the oracle is deterministic) but is
// charged and fault-perturbed like any other measurement.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "lock/evaluator.h"
#include "rf/receiver.h"
#include "rf/standards.h"
#include "sim/process.h"
#include "sim/rng.h"

namespace analock::calib {

class BiasOptimizer {
 public:
  /// Coordinate-descent passes of optimize() unless the caller asks for
  /// fewer (the step-12 refiner and the recovery passes run one).
  static constexpr std::size_t kPasses = 2;
  /// Capture length per trial measurement.
  static constexpr std::size_t kFftSize = 4096;
  /// Reference power during optimization.
  static constexpr double kInputDbm = -25.0;
  /// Specifications of the margin objective.
  static constexpr double kSnrSpecDb = 40.0;
  static constexpr double kSfdrSpecDb = 40.0;
  /// SFDR is only measured once the SNR is within this many dB of its
  /// spec (lazy evaluation: the coarse sweeps are SNR-gated).
  static constexpr double kSfdrGateDb = 15.0;

  BiasOptimizer(const rf::Standard& standard,
                const sim::ProcessVariation& process, const sim::Rng& rng,
                std::size_t passes = kPasses);

  /// Modulator-output SNR of a full configuration (one ATE measurement).
  double measure_snr(const rf::ReceiverConfig& config);

  /// Same measurement at an explicit input power (VGLNA segment tuning).
  double measure_snr_at(const rf::ReceiverConfig& config, double input_dbm);

  /// measure_snr_at for every config at every power, as the scalar loop
  /// "for each config, for each power" would measure them: result
  /// [c * input_dbm.size() + p] is configs[c] at input_dbm[p]. One batch
  /// per power.
  std::vector<double> measure_snr_at(
      std::span<const rf::ReceiverConfig> configs,
      std::span<const double> input_dbm);

  /// Two-tone SFDR of a configuration (ATE quick screen).
  double measure_sfdr(const rf::ReceiverConfig& config);

  /// Step-14 objective: worst specification margin,
  /// min(SNR - kSnrSpecDb, SFDR - kSfdrSpecDb), with the SFDR measurement
  /// gated on the SNR being close to spec.
  double score(const rf::ReceiverConfig& config);

  /// Optimizes loop delay + the four bias words in place; returns the
  /// improved configuration. `config` must already have the tank codes
  /// set and the mode bits in mission state.
  rf::ReceiverConfig optimize(const rf::ReceiverConfig& config);

  [[nodiscard]] std::size_t measurements() const {
    return evaluator_.trials();
  }

  /// Forwards a fault campaign to the optimizer's oracle (not owned;
  /// nullptr detaches): every SNR/SFDR trial then sees the campaign's
  /// measurement faults.
  void set_fault_injector(fault::FaultInjector* injector) {
    evaluator_.set_fault_injector(injector);
  }

 private:
  /// Sweeps one field (coarse grid then +/-refine) maximizing score(),
  /// one batch per phase (see the file comment).
  void sweep_field(rf::ReceiverConfig& config, std::uint32_t* field,
                   std::uint32_t max_value, double& best_score);

  lock::LockEvaluator evaluator_;
  std::size_t passes_;
};

}  // namespace analock::calib
