// Unit tests for the calibration-retrace attack and its secrecy metric.
#include <gtest/gtest.h>

#include "attack/retrace.h"

#include <algorithm>
#include "calibrated_fixture.h"

namespace {

using namespace analock;
using attack::CalibrationKnowledge;
using attack::RetraceAttack;

const attack::RetraceResult& result(CalibrationKnowledge knowledge) {
  static const auto run = [](CalibrationKnowledge k) {
    const auto& c = fixtures::chip(0);
    RetraceAttack attack(rf::standard_max_3ghz(), c.pv, c.rng);
    return attack.run(k);
  };
  static const attack::RetraceResult fields =
      run(CalibrationKnowledge::kFieldsOnly);
  static const attack::RetraceResult osc =
      run(CalibrationKnowledge::kOscillationTrick);
  static const attack::RetraceResult full =
      run(CalibrationKnowledge::kFullAlgorithm);
  switch (knowledge) {
    case CalibrationKnowledge::kFieldsOnly: return fields;
    case CalibrationKnowledge::kOscillationTrick: return osc;
    case CalibrationKnowledge::kFullAlgorithm: return full;
  }
  return full;
}

TEST(Retrace, FieldsOnlyFails) {
  const auto& r = result(CalibrationKnowledge::kFieldsOnly);
  EXPECT_FALSE(r.success)
      << "netlist knowledge alone must not recover the key";
}

TEST(Retrace, FullAlgorithmSucceeds) {
  const auto& r = result(CalibrationKnowledge::kFullAlgorithm);
  EXPECT_TRUE(r.success)
      << "an attacker with the complete algorithm IS the designer "
         "(the paper's security-assumption boundary)";
  EXPECT_GT(r.snr_receiver_db, 40.0);
}

TEST(Retrace, KnowledgeMonotonicallyHelps) {
  // The secrecy metric is the worst specification margin: an SNR-only
  // comparison misleads because partial-knowledge attacks find deceptive
  // SNR optima whose SFDR is broken.
  const auto& spec = rf::standard_max_3ghz().spec;
  auto margin = [&](CalibrationKnowledge k) {
    const auto& r = result(k);
    return std::min(r.snr_receiver_db - spec.min_snr_db,
                    r.sfdr_db - spec.min_sfdr_db);
  };
  const double fields = margin(CalibrationKnowledge::kFieldsOnly);
  const double osc = margin(CalibrationKnowledge::kOscillationTrick);
  const double full = margin(CalibrationKnowledge::kFullAlgorithm);
  EXPECT_GT(osc, fields);
  EXPECT_GT(full, osc);
  EXPECT_LT(fields, 0.0);
  EXPECT_GT(full, 0.0);
}

TEST(Retrace, OscillationTrickRecoversTheTank) {
  // Steps 1-7 give the attacker the capacitor codes: the retraced key's
  // coarse code should land near the calibrated one.
  const auto& r = result(CalibrationKnowledge::kOscillationTrick);
  const auto& true_key = fixtures::chip(0).cal.key;
  using L = lock::KeyLayout;
  const auto got = r.key.field(L::kCapCoarse);
  const auto want = true_key.field(L::kCapCoarse);
  const auto d = got > want ? got - want : want - got;
  EXPECT_LE(d, 3u);
  // Exact: the tank codes of the retraced key and the trials that found it.
  EXPECT_EQ(got, 18u);
  EXPECT_EQ(r.key.field(L::kCapFine), 66u);
  EXPECT_EQ(r.trials, 633u);
}

TEST(Retrace, TrialCostsAreAccounted) {
  for (const auto knowledge :
       {CalibrationKnowledge::kFieldsOnly,
        CalibrationKnowledge::kOscillationTrick,
        CalibrationKnowledge::kFullAlgorithm}) {
    const auto& r = result(knowledge);
    EXPECT_GT(r.trials, 50u) << to_string(knowledge);
    EXPECT_GT(r.cost.simulation_hours(), 10.0) << to_string(knowledge);
  }
}

TEST(Retrace, NamesAreStable) {
  EXPECT_STREQ(to_string(CalibrationKnowledge::kFieldsOnly), "fields-only");
  EXPECT_STREQ(to_string(CalibrationKnowledge::kOscillationTrick),
               "oscillation-trick");
  EXPECT_STREQ(to_string(CalibrationKnowledge::kFullAlgorithm),
               "full-algorithm");
}

}  // namespace
