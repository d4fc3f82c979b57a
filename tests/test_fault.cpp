// Unit tests for the fault-injection campaign layer: plan reproducibility,
// zero-fault identity, the lossy channel, frame CRCs, and the remote
// activation session protocol on top of them.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <vector>

#include "fault/crc32.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "fault/lossy_channel.h"
#include "lock/evaluator.h"
#include "lock/puf.h"
#include "lock/remote_activation.h"
#include "lock/remote_activation_session.h"
#include "rf/standards.h"
#include "sim/process.h"
#include "sim/rng.h"

namespace {

using namespace analock;
using fault::FaultInjector;
using fault::FaultPlan;
using fault::LossyChannel;
using lock::AckStatus;
using lock::Key64;

TEST(FaultPlan, InactiveByDefault) {
  const FaultPlan plan;
  EXPECT_FALSE(plan.active());
}

TEST(FaultPlan, AnyNonzeroRateActivates) {
  FaultPlan plan;
  plan.meas_spike_prob = 0.01;
  EXPECT_TRUE(plan.active());
  plan = {};
  plan.stuck_at1_bits = 1;
  EXPECT_TRUE(plan.active());
  plan = {};
  plan.msg_loss_prob = 0.5;
  EXPECT_TRUE(plan.active());
}

TEST(Crc32, KnownCheckValue) {
  // The canonical CRC-32/IEEE check vector.
  const std::array<std::uint8_t, 9> data{'1', '2', '3', '4', '5',
                                         '6', '7', '8', '9'};
  EXPECT_EQ(fault::crc32(data), 0xCBF43926u);
}

TEST(Crc32, SensitiveToEveryBit) {
  std::vector<std::uint8_t> data{0x00, 0xFF, 0x55, 0xAA};
  const std::uint32_t clean = fault::crc32(data);
  for (std::size_t byte = 0; byte < data.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      data[byte] ^= static_cast<std::uint8_t>(1u << bit);
      EXPECT_NE(fault::crc32(data), clean);
      data[byte] ^= static_cast<std::uint8_t>(1u << bit);
    }
  }
}

TEST(FaultInjector, InactiveInjectorIsIdentity) {
  FaultInjector injector;
  for (int i = 0; i < 50; ++i) {
    const double clean = -30.0 + i;
    EXPECT_EQ(injector.perturb_measurement("test.site", clean), clean);
  }
  EXPECT_EQ(injector.perturb_word(0xDEADBEEFCAFEF00Dull),
            0xDEADBEEFCAFEF00Dull);
  EXPECT_TRUE(injector.perturb_puf_response(true));
  EXPECT_FALSE(injector.perturb_puf_response(false));
  EXPECT_FALSE(injector.draw_msg_loss());
  EXPECT_LT(injector.draw_msg_corruption(64), 0);
  EXPECT_EQ(injector.draw_msg_delay(), 0u);
  EXPECT_EQ(injector.counts().total(), 0u);
}

TEST(FaultInjector, FixedSeedCampaignIsByteForByteReproducible) {
  FaultPlan plan;
  plan.seed = 1234;
  plan.meas_spike_prob = 0.3;
  plan.meas_dropout_prob = 0.1;
  plan.puf_flip_prob = 0.2;
  plan.msg_loss_prob = 0.25;
  plan.msg_corrupt_prob = 0.25;
  plan.msg_delay_prob = 0.25;
  plan.stuck_at0_bits = 2;
  plan.stuck_at1_bits = 3;

  FaultInjector a(plan);
  FaultInjector b(plan);
  EXPECT_EQ(a.stuck_at0_mask(), b.stuck_at0_mask());
  EXPECT_EQ(a.stuck_at1_mask(), b.stuck_at1_mask());
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(a.perturb_measurement("site", -25.0),
              b.perturb_measurement("site", -25.0))
        << "measurement draw " << i;
    EXPECT_EQ(a.perturb_puf_response(i % 2 == 0),
              b.perturb_puf_response(i % 2 == 0))
        << "puf draw " << i;
    EXPECT_EQ(a.draw_msg_loss(), b.draw_msg_loss()) << "loss draw " << i;
    EXPECT_EQ(a.draw_msg_corruption(224), b.draw_msg_corruption(224))
        << "corruption draw " << i;
    EXPECT_EQ(a.draw_msg_delay(), b.draw_msg_delay()) << "delay draw " << i;
  }
  EXPECT_EQ(a.counts().total(), b.counts().total());
  EXPECT_GT(a.counts().total(), 0u);
}

TEST(FaultInjector, CampaignIdSeparatesStreams) {
  FaultPlan plan;
  plan.seed = 1234;
  plan.meas_spike_prob = 0.5;
  FaultPlan other = plan;
  other.campaign_id = "another";
  FaultInjector a(plan);
  FaultInjector b(other);
  bool diverged = false;
  for (int i = 0; i < 100 && !diverged; ++i) {
    diverged = a.perturb_measurement("site", -25.0) !=
               b.perturb_measurement("site", -25.0);
  }
  EXPECT_TRUE(diverged);
}

TEST(FaultInjector, StuckBitMasksAreDisjointAndApplied) {
  FaultPlan plan;
  plan.seed = 7;
  plan.stuck_at0_bits = 3;
  plan.stuck_at1_bits = 2;
  FaultInjector injector(plan);
  const std::uint64_t s0 = injector.stuck_at0_mask();
  const std::uint64_t s1 = injector.stuck_at1_mask();
  EXPECT_EQ(std::popcount(s0), 3);
  EXPECT_EQ(std::popcount(s1), 2);
  EXPECT_EQ(s0 & s1, 0u);
  EXPECT_EQ(injector.perturb_word(~0ull) & s0, 0u);
  EXPECT_EQ(injector.perturb_word(0ull) & s1, s1);
  EXPECT_GT(injector.counts().words_stuck, 0u);
}

TEST(FaultInjector, MeasurementDropoutReportsInstrumentFloor) {
  FaultPlan plan;
  plan.seed = 5;
  plan.meas_dropout_prob = 1.0;
  FaultInjector injector(plan);
  EXPECT_EQ(injector.perturb_measurement("site", 55.0),
            plan.meas_dropout_value_db);
  EXPECT_EQ(injector.counts().meas_dropouts, 1u);
}

TEST(LossyChannel, PerfectWithoutInjector) {
  LossyChannel channel;
  const std::vector<std::uint8_t> payload{1, 2, 3, 4};
  const auto d = channel.transmit(payload);
  ASSERT_TRUE(d.delivered);
  EXPECT_FALSE(d.corrupted);
  EXPECT_EQ(d.payload, payload);
  EXPECT_EQ(d.deliver_tick, channel.now());
  EXPECT_EQ(channel.now(), 1u);  // one tick per transmit
  channel.wait(5);
  EXPECT_EQ(channel.now(), 6u);
}

TEST(LossyChannel, TotalLossDropsEverything) {
  FaultPlan plan;
  plan.seed = 11;
  plan.msg_loss_prob = 1.0;
  FaultInjector injector(plan);
  LossyChannel channel(&injector);
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(channel.transmit({0xAB}).delivered);
  }
  EXPECT_EQ(channel.stats().sent, 10u);
  EXPECT_EQ(channel.stats().lost, 10u);
}

TEST(LossyChannel, CorruptionFlipsExactlyOneBit) {
  FaultPlan plan;
  plan.seed = 13;
  plan.msg_corrupt_prob = 1.0;
  FaultInjector injector(plan);
  LossyChannel channel(&injector);
  const std::vector<std::uint8_t> payload{0x00, 0x00, 0x00, 0x00};
  const auto d = channel.transmit(payload);
  ASSERT_TRUE(d.delivered);
  EXPECT_TRUE(d.corrupted);
  int flipped = 0;
  for (std::size_t i = 0; i < payload.size(); ++i) {
    flipped += std::popcount(
        static_cast<unsigned>(d.payload[i] ^ payload[i]));
  }
  EXPECT_EQ(flipped, 1);
}

TEST(Frames, RequestFrameHasDocumentedSize) {
  const auto frame = lock::encode_request(1, 0, {0x1111, 0x2222});
  EXPECT_EQ(frame.size(), lock::kRequestFrameBytes);
}

TEST(Frames, AckRoundTripAndCorruptReject) {
  auto frame = lock::encode_ack(42, AckStatus::kOk);
  ASSERT_EQ(frame.size(), lock::kAckFrameBytes);
  const auto decoded = lock::decode_ack(frame);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->seq, 42u);
  EXPECT_EQ(decoded->status, AckStatus::kOk);
  frame[2] ^= 0x10;  // any bit flip must fail the CRC
  EXPECT_FALSE(lock::decode_ack(frame).has_value());
  EXPECT_FALSE(lock::decode_ack(std::vector<std::uint8_t>{1, 2, 3})
                   .has_value());
}

class EndpointTest : public ::testing::Test {
 protected:
  EndpointTest()
      : puf_(sim::Rng(42)), chip_(puf_, 2), endpoint_(chip_) {}

  lock::ArbiterPuf puf_;
  lock::RemoteActivationChip chip_;
  lock::RemoteActivationChipEndpoint endpoint_;
  const Key64 config_{0x1e2bb271ed7d914bull};
};

TEST_F(EndpointTest, CorruptedFrameGetsBadCrcNack) {
  auto frame = lock::encode_request(
      1, 0, lock::wrap_key(config_, chip_.public_key()));
  frame[9] ^= 0x01;
  const auto ack = endpoint_.handle_frame(frame);
  const auto decoded = lock::decode_ack(ack);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->status, AckStatus::kBadCrc);
  EXPECT_FALSE(chip_.load(0).has_value());
}

TEST_F(EndpointTest, RetransmitAcksIdempotentlyButReplayIsRejected) {
  const auto wrapped = lock::wrap_key(config_, chip_.public_key());
  const auto frame = lock::encode_request(7, 0, wrapped);
  const auto first = lock::decode_ack(endpoint_.handle_frame(frame));
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->status, AckStatus::kOk);
  // Same sequence number again: the install-succeeded-but-ack-lost case.
  const auto retransmit = lock::decode_ack(endpoint_.handle_frame(frame));
  ASSERT_TRUE(retransmit.has_value());
  EXPECT_EQ(retransmit->status, AckStatus::kOk);
  // A foreign sequence number against the provisioned slot is a replay.
  const auto replay = lock::decode_ack(
      endpoint_.handle_frame(lock::encode_request(8, 0, wrapped)));
  ASSERT_TRUE(replay.has_value());
  EXPECT_EQ(replay->status, AckStatus::kReplay);
  EXPECT_EQ(*chip_.load(0), config_);
}

TEST_F(EndpointTest, OutOfRangeSlotGetsBadSlot) {
  const auto frame = lock::encode_request(
      1, 9, lock::wrap_key(config_, chip_.public_key()));
  const auto decoded = lock::decode_ack(endpoint_.handle_frame(frame));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->status, AckStatus::kBadSlot);
}

TEST_F(EndpointTest, WrongChipCiphertextGetsBadKey) {
  lock::ArbiterPuf other_puf(sim::Rng(43));
  lock::RemoteActivationChip other_chip(other_puf, 1);
  const auto frame = lock::encode_request(
      1, 0, lock::wrap_key(config_, other_chip.public_key()));
  const auto decoded = lock::decode_ack(endpoint_.handle_frame(frame));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->status, AckStatus::kBadKey);
}

TEST(Session, PerfectChannelActivatesInOneAttempt) {
  lock::ArbiterPuf puf(sim::Rng(42));
  lock::RemoteActivationChip chip(puf, 1);
  lock::RemoteActivationChipEndpoint endpoint(chip);
  LossyChannel channel;
  lock::RemoteActivationSession session(endpoint, channel);
  const Key64 config{0x1e2bb271ed7d914bull};
  const auto r = session.activate(0, config, chip.public_key());
  EXPECT_TRUE(r.success);
  EXPECT_EQ(r.attempts, 1u);
  EXPECT_EQ(r.timeouts, 0u);
  EXPECT_EQ(*chip.load(0), config);
}

TEST(Session, RetriesThroughLossyChannelAndIsReproducible) {
  FaultPlan plan;
  plan.seed = 321;
  plan.msg_loss_prob = 0.4;
  plan.msg_corrupt_prob = 0.1;
  plan.msg_delay_prob = 0.2;

  auto run = [&] {
    lock::ArbiterPuf puf(sim::Rng(42));
    lock::RemoteActivationChip chip(puf, 1);
    lock::RemoteActivationChipEndpoint endpoint(chip);
    FaultInjector injector(plan);
    LossyChannel channel(&injector);
    lock::RemoteActivationSession session(
        endpoint, channel, lock::RemoteActivationSession::Options{}, 9);
    const Key64 config{0x1e2bb271ed7d914bull};
    auto result = session.activate(0, config, chip.public_key());
    EXPECT_TRUE(chip.load(0).has_value() == result.success);
    return result;
  };
  const auto a = run();
  const auto b = run();
  EXPECT_TRUE(a.success);
  EXPECT_EQ(a.attempts, b.attempts);
  EXPECT_EQ(a.elapsed_ticks, b.elapsed_ticks);
  EXPECT_EQ(a.timeouts, b.timeouts);
  EXPECT_EQ(a.bad_acks, b.bad_acks);
}

TEST(Session, DeadChannelExhaustsItsAttemptBudget) {
  FaultPlan plan;
  plan.seed = 17;
  plan.msg_loss_prob = 1.0;
  FaultInjector injector(plan);
  lock::ArbiterPuf puf(sim::Rng(42));
  lock::RemoteActivationChip chip(puf, 1);
  lock::RemoteActivationChipEndpoint endpoint(chip);
  LossyChannel channel(&injector);
  lock::RemoteActivationSession::Options opts;
  opts.max_attempts = 3;
  lock::RemoteActivationSession session(endpoint, channel, opts);
  const auto r = session.activate(0, Key64{1}, chip.public_key());
  EXPECT_FALSE(r.success);
  EXPECT_EQ(r.attempts, 3u);
  EXPECT_EQ(r.timeouts, 3u);
  EXPECT_FALSE(r.last_status.has_value());
}

TEST(Session, BackoffScheduleIsPinned) {
  // A dead channel runs all 8 attempts: 8 one-tick transmits and 7
  // jittered waits of nominal 1, 2, 4, 8, 16, 32 and 32 ticks. The
  // activation tables print no ticks, so this pins the backoff cap and
  // the jitter that only the elapsed time shows.
  FaultPlan plan;
  plan.seed = 17;
  plan.msg_loss_prob = 1.0;
  std::vector<std::uint64_t> elapsed;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    FaultInjector injector(plan);
    lock::ArbiterPuf puf(sim::Rng(42));
    lock::RemoteActivationChip chip(puf, 1);
    lock::RemoteActivationChipEndpoint endpoint(chip);
    LossyChannel channel(&injector);
    lock::RemoteActivationSession session(
        endpoint, channel, lock::RemoteActivationSession::Options{}, seed);
    const auto r = session.activate(0, Key64{1}, chip.public_key());
    EXPECT_EQ(r.attempts, 8u);
    elapsed.push_back(r.elapsed_ticks);
  }
  EXPECT_EQ(elapsed, (std::vector<std::uint64_t>{100, 119, 99, 97}));
}

TEST(Session, SecondActivationOfSameSlotAbortsAsReplay) {
  lock::ArbiterPuf puf(sim::Rng(42));
  lock::RemoteActivationChip chip(puf, 1);
  lock::RemoteActivationChipEndpoint endpoint(chip);
  LossyChannel channel;
  lock::RemoteActivationSession session(endpoint, channel);
  const Key64 config{0x1e2bb271ed7d914bull};
  ASSERT_TRUE(session.activate(0, config, chip.public_key()).success);
  const auto r = session.activate(0, config, chip.public_key());
  EXPECT_FALSE(r.success);
  EXPECT_EQ(r.attempts, 1u);  // protocol-fatal: no pointless retries
  ASSERT_TRUE(r.last_status.has_value());
  EXPECT_EQ(*r.last_status, AckStatus::kReplay);
}

TEST(MajorityVote, CorrectsMinorityBitFlips) {
  const Key64 good{0xAAAA5555F0F01234ull};
  const std::array<Key64, 3> votes{good, good ^ Key64{0x8001}, good};
  EXPECT_EQ(lock::majority_vote_keys(votes), good);
  const std::array<Key64, 1> single{good};
  EXPECT_EQ(lock::majority_vote_keys(single), good);
}

TEST(Puf, InjectedFlipsAreCorrectedByVotedKeyGeneration) {
  lock::ArbiterPuf clean_puf(sim::Rng(5));
  const Key64 clean_key = clean_puf.identification_key(0);

  FaultPlan plan;
  plan.seed = 99;
  plan.puf_flip_prob = 0.02;
  FaultInjector injector(plan);
  lock::ArbiterPuf faulty_puf(sim::Rng(5));
  faulty_puf.set_fault_injector(&injector);
  EXPECT_EQ(faulty_puf.identification_key(0), clean_key);
  EXPECT_GT(injector.counts().puf_flips, 0u);
}

TEST(Evaluator, DropoutCampaignForcesInstrumentFloor) {
  FaultPlan plan;
  plan.seed = 3;
  plan.meas_dropout_prob = 1.0;
  FaultInjector injector(plan);
  lock::LockEvaluator ev(rf::standard_max_3ghz(),
                         sim::ProcessVariation::nominal(), sim::Rng(1));
  ev.set_fault_injector(&injector);
  EXPECT_EQ(ev.snr_modulator_db(Key64{0}), plan.meas_dropout_value_db);
}

TEST(Evaluator, InactiveCampaignIsBitExactWithNoCampaign) {
  const Key64 key{0x1e2bb271ed7d914bull};
  lock::LockEvaluator plain(rf::standard_max_3ghz(),
                            sim::ProcessVariation::nominal(), sim::Rng(1));
  FaultInjector inactive;
  lock::LockEvaluator faulted(rf::standard_max_3ghz(),
                              sim::ProcessVariation::nominal(), sim::Rng(1));
  faulted.set_fault_injector(&inactive);
  EXPECT_EQ(plain.snr_modulator_db(key), faulted.snr_modulator_db(key));
}

}  // namespace
