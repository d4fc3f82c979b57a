// The full 14-step off-chip calibration procedure of paper Section V.B.
//
// This algorithm is part of the secret: together with the per-chip
// configuration settings it produces, it is what an attacker would have to
// reconstruct (paper Section IV.B.4 / VI.B.2). Running it against a chip
// instance yields the chip's unique unlocking key per standard.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "calib/bias_optimizer.h"
#include "calib/oscillation_tuner.h"
#include "fault/fault_injector.h"
#include "lock/key64.h"
#include "rf/receiver.h"
#include "rf/standards.h"
#include "sim/process.h"
#include "sim/rng.h"

namespace analock::calib {

/// Typed diagnosis of a failed calibration — which stage of the 14-step
/// procedure gave up, so the test floor can decide between re-insertion,
/// resume-from-checkpoint, and scrapping the die.
enum class FailureReason {
  kNone = 0,        ///< calibration succeeded
  kTankUntunable,   ///< step 6 never converged within the retry budget
  kQNotConverged,   ///< step 7 found no oscillation threshold
  kDiverged,        ///< recovery retries made the measured SNR worse
  kSpecNotMet,      ///< final characterization below spec after retries
};

[[nodiscard]] const char* to_string(FailureReason reason);

/// Resumable state of the step sequence: everything steps 1-7 (the tank
/// and Q tuning, the expensive oscillation-mode phase) produced. A result
/// carries it even on failure, so a later insertion can resume instead of
/// restarting from step 1.
struct CalibrationCheckpoint {
  bool tank_done = false;  ///< steps 1-7 complete; fields below valid
  std::uint32_t cap_coarse = 0;
  std::uint32_t cap_fine = 0;
  std::uint32_t q_enh = 0;
  std::uint32_t q_threshold = 0;
  double tank_freq_err_hz = 0.0;
};

/// Input-power segment of the dynamic-range characterization (Fig. 11).
struct InputSegment {
  double lo_dbm;
  double hi_dbm;
  [[nodiscard]] double mid_dbm() const { return 0.5 * (lo_dbm + hi_dbm); }
};

/// The paper's three segments: [-85:-45], [-60:-20], [-40:0] dBm.
inline constexpr std::array<InputSegment, 3> kInputSegments{{
    {-85.0, -45.0},
    {-60.0, -20.0},
    {-40.0, 0.0},
}};
/// Segment whose VGLNA code enters the canonical key (-25 dBm reference).
inline constexpr std::size_t kReferenceSegment = 1;

struct StepLog {
  int step;                 ///< paper step number (1..14)
  std::string description;
  double metric;            ///< step-specific figure (Hz, code, dB, ...)
  /// Oracle measurements this step consumed (delta of the evaluator/tuner
  /// trial counters across the step) — the paper's cost unit, so the
  /// calibration-budget tables come straight from this data.
  std::uint64_t measurements = 0;
  unsigned retries = 0;       ///< extra attempts the step needed
  std::uint64_t faults = 0;   ///< injected faults observed during the step
};

struct CalibrationResult {
  bool success = false;
  /// Typed diagnosis when success is false (kNone on success).
  FailureReason failure = FailureReason::kNone;
  rf::ReceiverConfig config;  ///< mission configuration (reference segment)
  lock::Key64 key;            ///< the chip's secret key for this standard
  std::array<std::uint32_t, 3> vglna_per_segment{};
  double tank_freq_err_hz = 0.0;
  double snr_modulator_db = -200.0;
  double snr_receiver_db = -200.0;
  double sfdr_db = -200.0;
  std::size_t total_measurements = 0;
  std::vector<StepLog> log;
  /// Sum of per-step retries (hardened runs; 0 on the clean path).
  unsigned total_retries = 0;
  /// Faults the attached campaign injected over this run.
  std::uint64_t faults_injected = 0;
  /// Resume state: valid (tank_done) once steps 1-7 completed, whether or
  /// not the run as a whole succeeded.
  CalibrationCheckpoint checkpoint;
};

class Calibrator {
 public:
  struct Options {
    /// Coordinate-descent passes of the step-14 bias optimization.
    std::size_t bias_passes = BiasOptimizer::kPasses;
    bool tune_vglna_segments = true;
    /// Re-run one extra bias pass after the VGLNA selection.
    bool refine_after_vglna = true;
    /// Robustness for noisy/faulty ATE sessions: median-of-3 votes per
    /// final-characterization reading, up to 2 retries of each
    /// retryable stage (tank tune, Q tune, spec recovery), and a stop
    /// with kDiverged when a recovery retry's receiver SNR lands 3 dB
    /// below the previous attempt. Off by default: one reading per
    /// metric and no retries.
    bool harden = false;
  };

  /// A chip is identified by (standard, process corner, noise seed): the
  /// calibrator builds its own receiver/evaluator instances for it, the
  /// way ATE owns the device during test.
  Calibrator(const rf::Standard& standard,
             const sim::ProcessVariation& process, const sim::Rng& chip_rng)
      : Calibrator(standard, process, chip_rng, Options{}) {}
  Calibrator(const rf::Standard& standard,
             const sim::ProcessVariation& process, const sim::Rng& chip_rng,
             Options options);

  /// Executes steps 1-14 and characterizes the result.
  CalibrationResult run();

  /// Resumes the step sequence from a checkpoint (skipping the completed
  /// tank/Q phase when checkpoint.tank_done). An invalid checkpoint falls
  /// back to a full run.
  CalibrationResult run(const CalibrationCheckpoint& resume_from);

  /// Attaches a fault campaign (not owned; nullptr detaches). The
  /// injector is threaded into every oracle the calibration consumes.
  void set_fault_injector(fault::FaultInjector* injector) {
    injector_ = injector;
  }

 private:
  CalibrationResult run_impl(const CalibrationCheckpoint* resume_from);

  /// Chooses the VGLNA code for one input segment by measured SNR.
  std::uint32_t tune_vglna_segment(rf::ReceiverConfig config,
                                   const InputSegment& segment,
                                   BiasOptimizer& optimizer);

  /// Faults the campaign has injected so far (0 with no injector).
  [[nodiscard]] std::uint64_t fault_count() const {
    return injector_ != nullptr ? injector_->counts().total() : 0;
  }

  const rf::Standard* standard_;
  sim::ProcessVariation process_;
  sim::Rng chip_rng_;
  Options options_;
  fault::FaultInjector* injector_ = nullptr;
};

}  // namespace analock::calib
