// Concurrency stress for the batched evaluation engine. Registered as
// ctest `tsan_batch_eval` with a fixed name so the tsan preset
// (-DANALOCK_SANITIZE=thread) can target it for race detection: the
// thread pool fan-out, the shared FFT twiddle cache, the batch
// stepper's shared-read/private-write layout, its noise-stream state
// carried from capture to capture, the next noise slot drawn in pieces
// by idle workers while others step the lanes, lanes of every pass-2
// kernel split across the workers by weight, the evaluator's noise
// prefix filled by pool workers and read by later captures, and the
// lane-sharded batch periodograms all get hammered here.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "dsp/fft_plan.h"
#include "dsp/spectrum.h"
#include "lock/batch_evaluator.h"
#include "lock/evaluator.h"
#include "lock/key_layout.h"
#include "par/thread_pool.h"
#include "reference_fft.h"
#include "reference_receiver.h"
#include "rf/receiver.h"
#include "rf/receiver_batch.h"
#include "rf/standards.h"
#include "sim/process.h"
#include "sim/rng.h"

namespace {

using namespace analock;
using lock::Key64;

TEST(BatchStress, PoolChurn) {
  par::ThreadPool pool(4);
  std::vector<double> sums(64, 0.0);
  for (int round = 0; round < 200; ++round) {
    pool.parallel_for(sums.size(), [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) sums[i] += 1.0;
    });
  }
  for (const double s : sums) EXPECT_EQ(s, 200.0);
}

TEST(BatchStress, ConcurrentTwiddleCache) {
  // Many threads hitting reference::twiddles_for for fresh sizes at once —
  // the regression surface of the old unsynchronized static map.
  std::vector<std::thread> threads;
  threads.reserve(8);
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([t] {
      for (std::size_t n = 2; n <= 2048; n *= 2) {
        std::vector<dsp::cplx> x(n, dsp::cplx{1.0, static_cast<double>(t)});
        reference::fft_inplace(x);
      }
    });
  }
  for (auto& thread : threads) thread.join();
}

TEST(BatchStress, BatchedEvaluationUnderThreads) {
  sim::Rng chip_rng(9001);
  const auto pv = sim::ProcessVariation::monte_carlo(chip_rng, 0);
  lock::EvaluatorOptions opt;
  opt.fft_size = 512;
  opt.sfdr_fft_size = 1024;
  opt.baseband_points = 128;
  opt.settle = 128;
  lock::LockEvaluator ev(rf::standard_max_3ghz(), pv, chip_rng.fork("chip"),
                         opt);
  par::ThreadPool pool(4);
  lock::BatchEvaluator batch(ev, &pool);

  // Twelve random keys, then eight near the first with its Gmin on: most
  // share that front end, so the workers reuse and switch pass-1 buffers.
  using L = lock::KeyLayout;
  sim::Rng key_rng(17);
  std::vector<Key64> keys;
  for (int i = 0; i < 12; ++i) keys.push_back(Key64::random(key_rng));
  const Key64 base = keys[0].with_bit(L::kGminEnable, true);
  for (const unsigned bit :
       {L::kCapCoarse.lsb, L::kCapFine.lsb + 2, L::kVglnaGain.lsb + 1,
        L::kQEnh.lsb + 1, L::kDacBias.lsb, L::kGminBias.lsb,
        L::kCapCoarse.lsb + 5, L::kLoopDelay.lsb}) {
    keys.push_back(base.with_bit(bit, !base.bit(bit)));
  }
  const auto reports = batch.evaluate_batch(keys);
  ASSERT_EQ(reports.size(), keys.size());
  const auto again = batch.evaluate_batch(keys);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(reports[i].snr_receiver_db, again[i].snr_receiver_db) << i;
  }
}

TEST(BatchStress, PrefixReadingsBetweenMultiWindowReadings) {
  // One evaluator on a 4-thread pool alternates readings that fit in its
  // noise prefix (modulator SNR, SFDR) with receiver readings, which run
  // several noise windows and release the prefix, so workers draw it
  // again and again and later captures read it. Every reading equals a
  // 1-thread evaluator's.
  sim::Rng chip_rng(9004);
  const auto pv = sim::ProcessVariation::monte_carlo(chip_rng, 0);
  lock::EvaluatorOptions opt;
  opt.fft_size = 1024;
  opt.sfdr_fft_size = 2048;
  opt.baseband_points = 256;
  opt.settle = 256;
  ASSERT_GT(rf::receiver_input_length(opt.baseband_points, opt.settle),
            rf::ReceiverBatch::kNoiseWindow);
  lock::LockEvaluator ev(rf::standard_max_3ghz(), pv, chip_rng.fork("chip"),
                         opt);
  lock::LockEvaluator ref_ev(rf::standard_max_3ghz(), pv,
                             chip_rng.fork("chip"), opt);
  par::ThreadPool pool(4);
  par::ThreadPool narrow(1);
  lock::BatchEvaluator batch(ev, &pool);
  lock::BatchEvaluator ref(ref_ev, &narrow);

  sim::Rng key_rng(18);
  std::vector<Key64> keys;
  for (int i = 0; i < 11; ++i) keys.push_back(Key64::random(key_rng));
  const double dbm = opt.input_dbm;
  const auto mod = ref.clean_snr_modulator(keys, dbm);
  const auto sfdr = ref.clean_sfdr(keys, opt.two_tone_dbm);
  const std::span<const Key64> three(keys.data(), 3);
  const auto rx = ref.clean_snr_receiver(three, dbm);
  for (int round = 0; round < 4; ++round) {
    EXPECT_EQ(batch.clean_snr_modulator(keys, dbm), mod) << round;
    if (round % 2 == 1) EXPECT_EQ(batch.clean_snr_receiver(three, dbm), rx);
    EXPECT_EQ(batch.clean_sfdr(keys, opt.two_tone_dbm), sfdr) << round;
  }
}

TEST(BatchStress, ContinuingCapturesUnderThreads) {
  // A one-lane batch driven the way the calibration tuners drive it:
  // pool workers advance the member noise streams in one capture and
  // other workers resume them in the next. Every capture still matches
  // the scalar chip's.
  const rf::Standard& standard = rf::standard_max_3ghz();
  sim::Rng chip_rng(9002);
  const auto pv = sim::ProcessVariation::monte_carlo(chip_rng, 0);
  const sim::Rng rng = chip_rng.fork("chip");
  // Oscillation mode: loop open, comparator as buffer, Gmin off, output
  // buffer in path, pre-amplifier tap observed.
  rf::ReceiverConfig cfg;
  cfg.modulator.q_enh = 63;
  cfg.modulator.feedback_enable = false;
  cfg.modulator.comp_clock_enable = false;
  cfg.modulator.gmin_enable = false;
  cfg.modulator.buffer_in_path = true;
  cfg.modulator.test_mux = 2;
  par::ThreadPool pool(4);
  rf::ReceiverBatch batch(standard, pv, rng);
  reference::Receiver ref(standard, pv, rng);
  for (std::uint32_t k = 0; k < 6; ++k) {
    cfg.modulator.cap_fine = 40 * k;
    const std::vector<double> zeros(k % 2 == 0 ? 6144 : 36865, 0.0);
    batch.configure({&cfg, 1});
    const auto got = batch.capture_modulator(zeros, 4096, pool);
    ref.configure(cfg);
    ref.reset();
    const auto want = ref.capture_modulator(zeros, 4096).output;
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(got[i], want[i]) << "capture " << k << " sample " << i;
    }
  }
}

TEST(BatchStress, PipelinedCapturesUnderThreads) {
  // Multi-window captures draw each noise slot in pieces, claimed from a
  // shared index by the workers a lane pass leaves idle (one lane) or by
  // the workers' tails (32 lanes), while the lanes read the slot before.
  // Every capture on a 4-thread pool equals the 1-thread pool's, and the
  // streams carry on across captures in both.
  const rf::Standard& standard = rf::standard_max_3ghz();
  sim::Rng chip_rng(9005);
  const auto pv = sim::ProcessVariation::monte_carlo(chip_rng, 0);
  const sim::Rng rng = chip_rng.fork("chip");
  rf::ReceiverConfig osc;
  osc.modulator.q_enh = 63;
  osc.modulator.feedback_enable = false;
  osc.modulator.comp_clock_enable = false;
  osc.modulator.gmin_enable = false;
  osc.modulator.buffer_in_path = true;
  osc.modulator.test_mux = 2;
  sim::Rng key_rng(19);
  std::vector<rf::ReceiverConfig> wide_configs;
  const Key64 base = Key64::random(key_rng);
  for (unsigned l = 0; l < 32; ++l) {
    rf::ReceiverConfig c = lock::decode_key(base, standard.digital_mode);
    c.modulator.cap_fine = (c.modulator.cap_fine + 8 * l) % 256;
    wide_configs.push_back(c);
  }
  par::ThreadPool pool(4);
  par::ThreadPool narrow(1);
  rf::ReceiverBatch one(standard, pv, rng);
  rf::ReceiverBatch one_ref(standard, pv, rng);
  rf::ReceiverBatch wide(standard, pv, rng, wide_configs);
  rf::ReceiverBatch wide_ref(standard, pv, rng, wide_configs);
  for (std::uint32_t k = 0; k < 4; ++k) {
    osc.modulator.cap_fine = 50 * k;
    one.configure({&osc, 1});
    one_ref.configure({&osc, 1});
    const std::vector<double> zeros(k % 2 == 0 ? 36864 : 24577, 0.0);
    EXPECT_EQ(one.capture_modulator(zeros, 4096, pool),
              one_ref.capture_modulator(zeros, 4096, narrow))
        << "one lane, capture " << k;
    const std::vector<double> short_zeros(k % 2 == 0 ? 20000 : 16385, 0.0);
    EXPECT_EQ(wide.capture_modulator(short_zeros, 1024, pool),
              wide_ref.capture_modulator(short_zeros, 1024, narrow))
        << "32 lanes, capture " << k;
  }
}

TEST(BatchStress, MixedKindCapturesUnderThreads) {
  // Lanes of all four pass-2 kernels (fixed, r1-only, no-quantiser,
  // full) interleaved on one front end, so the weighted split gives the
  // workers ranges of unequal length and a fixed lane leads a range whose
  // later lanes need pass 1. Modulator and receiver captures on a 4-thread
  // pool equal the 1-thread pool's.
  sim::Rng chip_rng(9006);
  const auto pv = sim::ProcessVariation::monte_carlo(chip_rng, 0);
  const sim::Rng rng = chip_rng.fork("chip");
  const rf::Standard& standard = rf::standard_max_3ghz();
  std::vector<rf::ReceiverConfig> configs;
  for (unsigned l = 0; l < 24; ++l) {
    rf::ReceiverConfig c;
    c.digital_mode = standard.digital_mode;
    c.modulator.test_mux = 3 - l % 4;
    c.modulator.feedback_enable = l % 8 >= 4;
    c.modulator.cap_fine = (c.modulator.cap_fine + 11 * l) % 256;
    configs.push_back(c);
  }
  par::ThreadPool pool(4);
  par::ThreadPool narrow(1);
  const auto tone = rf::make_test_tone(standard, -25.0, 20000);
  for (int round = 0; round < 3; ++round) {
    rf::ReceiverBatch batch(standard, pv, rng, configs);
    rf::ReceiverBatch ref(standard, pv, rng, configs);
    EXPECT_EQ(batch.capture_modulator(tone, 512, pool),
              ref.capture_modulator(tone, 512, narrow))
        << "modulator, round " << round;
    const std::size_t n = rf::receiver_input_length(256, 100, 16);
    const auto rx_tone = rf::make_test_tone(standard, -25.0, n);
    rf::ReceiverBatch rx(standard, pv, rng, configs);
    rf::ReceiverBatch rx_ref(standard, pv, rng, configs);
    EXPECT_EQ(rx.capture_receiver(rx_tone, 100, 256, 16, pool),
              rx_ref.capture_receiver(rx_tone, 100, 256, 16, narrow))
        << "receiver, round " << round;
  }
}

TEST(BatchStress, ParallelPeriodogramsUnderThreads) {
  // Repeated batches on a 7-worker pool: shared read-only plans and
  // window, per-chunk scratch, lane-disjoint spectra, and for the
  // reducing forms one spectrum per chunk that its lanes reuse. Lane
  // counts that do not divide into the chunks give uneven splits. Every
  // bin, and every reduced value, must equal the 1-thread run's.
  const auto in_band = [](const dsp::Periodogram& p) {
    return p.band_power(p.one_sided() ? 0.0 : -0.45e6, 0.45e6);
  };
  par::ThreadPool wide(7);
  par::ThreadPool narrow(1);
  sim::Rng rng(9003);
  for (const std::size_t lanes : {3u, 9u, 33u}) {
    const std::size_t n = 512;
    std::vector<double> real(lanes * n);
    for (auto& v : real) v = rng.gaussian();
    std::vector<dsp::cplx> baseband(lanes * n / 2);
    for (auto& v : baseband) v = {rng.gaussian(), rng.gaussian()};
    const auto real_ref = dsp::Periodogram::many_real(
        real, lanes, 1.0e6, dsp::WindowKind::kHann, narrow);
    const auto complex_ref = dsp::Periodogram::many_complex(
        baseband, lanes, 1.0e6, dsp::WindowKind::kHann, narrow);
    for (int round = 0; round < 20; ++round) {
      const auto real_got = dsp::Periodogram::many_real(
          real, lanes, 1.0e6, dsp::WindowKind::kHann, wide);
      const auto complex_got = dsp::Periodogram::many_complex(
          baseband, lanes, 1.0e6, dsp::WindowKind::kHann, wide);
      const auto real_reduced = dsp::Periodogram::reduced_real(
          real, lanes, 1.0e6, in_band, dsp::WindowKind::kHann, wide);
      const auto complex_reduced = dsp::Periodogram::reduced_complex(
          baseband, lanes, 1.0e6, in_band, dsp::WindowKind::kHann, wide);
      for (std::size_t l = 0; l < lanes; ++l) {
        ASSERT_EQ(real_got[l].power(), real_ref[l].power())
            << lanes << ":" << l;
        ASSERT_EQ(complex_got[l].power(), complex_ref[l].power())
            << lanes << ":" << l;
        ASSERT_EQ(real_reduced[l], in_band(real_ref[l])) << lanes << ":" << l;
        ASSERT_EQ(complex_reduced[l], in_band(complex_ref[l]))
            << lanes << ":" << l;
      }
    }
  }
}

}  // namespace
