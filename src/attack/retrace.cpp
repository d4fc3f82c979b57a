#include "attack/retrace.h"

#include "attack/multi_objective.h"
#include "calib/calibrator.h"
#include "calib/oscillation_tuner.h"
#include "lock/key_layout.h"
#include "obs/trace.h"
#include "rf/receiver.h"
#include "rf/receiver_batch.h"

namespace analock::attack {

namespace {

void characterize(lock::LockEvaluator& evaluator, RetraceResult& result) {
  result.snr_receiver_db = evaluator.snr_receiver_db(result.key);
  result.sfdr_db = evaluator.sfdr_db(result.key);
  result.trials += 2;
  ++result.cost.snr_trials;
  ++result.cost.sfdr_trials;
  const auto& spec = evaluator.standard().spec;
  result.success = result.snr_receiver_db >= spec.min_snr_db &&
                   result.sfdr_db >= spec.min_sfdr_db;
}

}  // namespace

const char* to_string(CalibrationKnowledge knowledge) {
  switch (knowledge) {
    case CalibrationKnowledge::kFieldsOnly: return "fields-only";
    case CalibrationKnowledge::kOscillationTrick: return "oscillation-trick";
    case CalibrationKnowledge::kFullAlgorithm: return "full-algorithm";
  }
  return "?";
}

RetraceResult RetraceAttack::run(CalibrationKnowledge knowledge) {
  ANALOCK_SPAN("attack.retrace");
  RetraceResult result;
  result.knowledge = knowledge;
  lock::LockEvaluator evaluator(*standard_, process_, chip_rng_);

  switch (knowledge) {
    case CalibrationKnowledge::kFieldsOnly: {
      // Mid-scale start (the attacker's best guess without the
      // simulation-derived initial words), SNR-driven descent.
      rf::ReceiverConfig guess;  // defaults: mid codes, mission mode
      CoordinateDescentAttack descent(evaluator, chip_rng_.fork("retrace"));
      MultiObjectiveOptions options;
      options.max_trials = 1200;
      options.passes = 2;
      options.force_mission_mode = true;
      const auto r = descent.run_from(lock::encode_key(guess), options);
      result.key = r.best_key;
      result.trials = r.trials;
      result.cost = r.cost;
      break;
    }
    case CalibrationKnowledge::kOscillationTrick: {
      // Steps 1-7 reconstructed: the tank is tuned properly...
      rf::ReceiverBatch dut(*standard_, process_,
                            chip_rng_.fork("calibration-dut"));
      calib::OscillationTuner tuner(dut);
      const auto tank = tuner.tune(standard_->f0_hz);
      const auto q = tuner.back_off(tank.cap_coarse, tank.cap_fine);
      const std::size_t readings = tuner.readings();
      result.trials += readings;
      result.cost.snr_trials += readings;

      // ...but the bias words start from the attacker's blind mid-scale
      // guess and are swept in an arbitrary (wrong) order with a plain
      // SNR objective — no spec-margin logic, no loop-delay-first rule.
      rf::ReceiverConfig guess;
      guess.modulator.cap_coarse = tank.cap_coarse;
      guess.modulator.cap_fine = tank.cap_fine;
      guess.modulator.q_enh = q.q_enh;
      CoordinateDescentAttack descent(evaluator, chip_rng_.fork("retrace"));
      MultiObjectiveOptions options;
      options.max_trials = 1000;
      options.passes = 2;
      options.force_mission_mode = true;
      const auto r = descent.run_from(lock::encode_key(guess), options);
      result.key = r.best_key;
      result.trials += r.trials;
      result.cost += r.cost;
      break;
    }
    case CalibrationKnowledge::kFullAlgorithm: {
      // The attacker has become the designer: run the real procedure.
      calib::Calibrator calibrator(*standard_, process_, chip_rng_);
      const auto cal = calibrator.run();
      result.key = cal.key;
      result.trials = cal.total_measurements;
      result.cost.snr_trials = cal.total_measurements;
      break;
    }
  }

  characterize(evaluator, result);
  obs::event("attack.retrace.result",
             {{"knowledge", to_string(knowledge)},
              {"success", result.success},
              {"query", result.trials},
              {"snr_receiver_db", result.snr_receiver_db},
              {"sfdr_db", result.sfdr_db}});
  return result;
}

}  // namespace analock::attack
