// Bit-exactness and infrastructure tests for the batched evaluation
// engine: FFT plans, the thread pool, batched periodograms, ReceiverBatch
// parity with the scalar reference::Receiver across chunk boundaries and
// across sequential captures, the work counters, and BatchEvaluator
// parity with the block-level reference recipe (reference_oracle.h) and
// with per-key LockEvaluator calls.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <complex>
#include <future>
#include <stdexcept>
#include <thread>
#include <vector>

#include "calib/oscillation_tuner.h"
#include "dsp/fft_plan.h"
#include "dsp/spectrum.h"
#include "dsp/window.h"
#include "fault/fault_injector.h"
#include "lock/batch_evaluator.h"
#include "lock/evaluator.h"
#include "lock/key_layout.h"
#include "obs/metrics.h"
#include "par/thread_pool.h"
#include "reference_fft.h"
#include "reference_oracle.h"
#include "reference_receiver.h"
#include "rf/receiver.h"
#include "rf/receiver_batch.h"
#include "rf/standards.h"
#include "sim/process.h"
#include "sim/rng.h"

namespace {

using namespace analock;
using lock::BatchEvaluator;
using lock::Key64;
using lock::LockEvaluator;

// ---------------------------------------------------------------------
// FFT plans
// ---------------------------------------------------------------------

std::vector<dsp::cplx> random_complex(std::size_t n, std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<dsp::cplx> x(n);
  for (auto& v : x) v = {rng.gaussian(), rng.gaussian()};
  return x;
}

TEST(FftPlan, MatchesFftInplaceExactly) {
  // Up to the oracle's sizes (8192-point screens, 16384-point SFDR
  // captures, whose real transforms run 4096- and 8192-point plans),
  // plus inputs scaled to extreme but finite magnitudes.
  for (const std::size_t n :
       {2u, 8u, 64u, 1024u, 4096u, 8192u, 16384u}) {
    for (const double scale : {1.0, 1e300, 1e-300}) {
      auto a = random_complex(n, 7 + n);
      for (auto& v : a) v *= scale;
      auto b = a;
      reference::fft_inplace(a);
      dsp::FftPlan plan(n);
      plan.run(b);
      for (std::size_t k = 0; k < n; ++k) {
        ASSERT_TRUE(std::isfinite(a[k].real()) && std::isfinite(a[k].imag()));
        EXPECT_EQ(a[k].real(), b[k].real())
            << "n=" << n << " scale=" << scale << " k=" << k;
        EXPECT_EQ(a[k].imag(), b[k].imag())
            << "n=" << n << " scale=" << scale << " k=" << k;
      }
    }
  }
}

TEST(RealFftPlan, MatchesComplexFft) {
  const std::size_t n = 512;
  sim::Rng rng(11);
  std::vector<double> x(n);
  for (auto& v : x) v = rng.gaussian();

  std::vector<dsp::cplx> ref(n);
  for (std::size_t i = 0; i < n; ++i) ref[i] = {x[i], 0.0};
  reference::fft_inplace(ref);

  dsp::RealFftPlan plan(n);
  std::vector<dsp::cplx> out(plan.bins());
  plan.run(x, out);
  for (std::size_t k = 0; k < plan.bins(); ++k) {
    EXPECT_NEAR(ref[k].real(), out[k].real(), 1e-9) << k;
    EXPECT_NEAR(ref[k].imag(), out[k].imag(), 1e-9) << k;
  }
}

TEST(RealFftPlan, MatchesComplexUnpackExactly) {
  // The plan's spelled-out unpack equals the std::complex one bit for
  // bit, windowed or not, at the oracle's sizes and extreme scales.
  for (const std::size_t n : {8u, 512u, 8192u, 16384u}) {
    const auto w = dsp::make_window(dsp::WindowKind::kHann, n);
    dsp::RealFftPlan plan(n);
    std::vector<dsp::cplx> out(plan.bins());
    for (const double scale : {1.0, 1e300, 1e-300}) {
      sim::Rng rng(13 + n);
      std::vector<double> x(n);
      for (auto& v : x) v = scale * rng.gaussian();
      for (const bool windowed : {false, true}) {
        const std::span<const double> win =
            windowed ? std::span<const double>(w) : std::span<const double>{};
        const auto ref = reference::real_fft_half(x, win);
        plan.run(x, out, win);
        for (std::size_t k = 0; k < plan.bins(); ++k) {
          EXPECT_EQ(ref[k].real(), out[k].real())
              << "n=" << n << " scale=" << scale << " windowed=" << windowed
              << " k=" << k;
          EXPECT_EQ(ref[k].imag(), out[k].imag())
              << "n=" << n << " scale=" << scale << " windowed=" << windowed
              << " k=" << k;
        }
      }
    }
  }
}

TEST(RealFftPlan, RunManyMatchesPerLaneRuns) {
  const std::size_t n = 256, lanes = 5;
  sim::Rng rng(23);
  std::vector<double> signals(n * lanes);
  for (auto& v : signals) v = rng.gaussian();

  dsp::RealFftPlan plan(n);
  std::vector<dsp::cplx> batched(plan.bins() * lanes);
  plan.run_many(signals, batched, lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    std::vector<dsp::cplx> one(plan.bins());
    plan.run(std::span<const double>(signals).subspan(l * n, n), one);
    for (std::size_t k = 0; k < plan.bins(); ++k) {
      EXPECT_EQ(one[k], batched[l * plan.bins() + k]) << l << ":" << k;
    }
  }
}

TEST(RealFftPlan, WindowedPackMatchesWindowedInput) {
  // The window multiply fused into the even/odd pack stores the same
  // values as windowing into a separate buffer first.
  const std::size_t n = 256;
  sim::Rng rng(29);
  std::vector<double> x(n);
  for (auto& v : x) v = rng.gaussian();
  const auto w = dsp::make_window(dsp::WindowKind::kHann, n);
  std::vector<double> xw(n);
  for (std::size_t i = 0; i < n; ++i) xw[i] = x[i] * w[i];

  dsp::RealFftPlan plan(n);
  std::vector<dsp::cplx> ref(plan.bins());
  plan.run(xw, ref);
  std::vector<dsp::cplx> out(plan.bins());
  plan.run(x, out, w);
  for (std::size_t k = 0; k < plan.bins(); ++k) {
    EXPECT_EQ(ref[k], out[k]) << k;
  }
}

// ---------------------------------------------------------------------
// Thread pool
// ---------------------------------------------------------------------

TEST(ThreadPool, CoversRangeExactlyOnce) {
  par::ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  for (const std::size_t n : {0u, 1u, 3u, 4u, 17u, 1000u}) {
    std::vector<std::atomic<int>> hits(n);
    pool.parallel_for(n, [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
    });
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(ThreadPool, SingleThreadRunsInline) {
  par::ThreadPool pool(1);
  std::size_t calls = 0;
  pool.parallel_for(10, [&](std::size_t begin, std::size_t end) {
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 10u);
    ++calls;
  });
  EXPECT_EQ(calls, 1u);
}

TEST(ThreadPool, PropagatesExceptions) {
  par::ThreadPool pool(3);
  EXPECT_THROW(
      pool.parallel_for(100,
                        [&](std::size_t begin, std::size_t) {
                          if (begin == 0) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
  // Pool stays usable after an exception.
  std::atomic<int> total{0};
  pool.parallel_for(8, [&](std::size_t begin, std::size_t end) {
    total.fetch_add(static_cast<int>(end - begin));
  });
  EXPECT_EQ(total.load(), 8);
}

TEST(ThreadPool, CallerRunsChunksNoWorkerStarted) {
  // A 2-thread pool's only worker is held inside caller A's fork-join.
  // Caller B's second chunk then waits in the queue with no worker free
  // to start it, so B must run it itself. A pool whose caller sleeps on
  // it deadlocks until the worker is released; the test releases the
  // worker after a deadline either way, so it fails instead of hanging.
  par::ThreadPool pool(2);
  std::atomic<bool> held{false};
  std::atomic<bool> release{false};
  std::thread caller_a([&] {
    pool.parallel_for(2, [&](std::size_t begin, std::size_t) {
      if (begin == 0) {
        // Caller A stays in its own chunk until the worker has taken the
        // other one, so the worker, not A, is the one held.
        while (!held) std::this_thread::yield();
        return;
      }
      held = true;
      while (!release) std::this_thread::yield();
    });
  });
  while (!held) std::this_thread::yield();

  std::atomic<int> chunks_b{0};
  auto caller_b = std::async(std::launch::async, [&] {
    pool.parallel_for(2, [&](std::size_t, std::size_t) {
      chunks_b.fetch_add(1);
    });
  });
  const bool finished = caller_b.wait_for(std::chrono::seconds(20)) ==
                        std::future_status::ready;
  release = true;
  caller_b.get();
  caller_a.join();
  EXPECT_TRUE(finished) << "caller B waited on a chunk no worker started";
  EXPECT_EQ(chunks_b.load(), 2);
}

// ---------------------------------------------------------------------
// Batched periodograms
// ---------------------------------------------------------------------

/// Every bin of each lane of `batched` equals the single-lane
/// Periodogram of that lane's capture.
template <typename Sample>
void expect_matches_per_lane(std::span<const Sample> signals,
                             std::size_t lanes,
                             const std::vector<dsp::Periodogram>& batched) {
  const std::size_t n = signals.size() / lanes;
  ASSERT_EQ(batched.size(), lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    const dsp::Periodogram one(signals.subspan(l * n, n), 1.0e6);
    ASSERT_EQ(one.size(), batched[l].size());
    for (std::size_t k = 0; k < one.size(); ++k) {
      EXPECT_EQ(one.power()[k], batched[l].power()[k]) << l << ":" << k;
    }
  }
}

// Every bin of every lane equals the single-lane Periodogram's, on pools
// of 1, 2 and 7 threads and for lane counts that do and do not divide
// into the pool's chunks.
TEST(Periodogram, ManyRealMatchesPerLane) {
  const std::size_t n = 512;
  for (const std::size_t threads : {1u, 2u, 7u}) {
    par::ThreadPool pool(threads);
    for (const std::size_t lanes : {1u, 3u, 5u, 33u}) {
      SCOPED_TRACE(testing::Message() << threads << " threads, " << lanes
                                      << " lanes");
      sim::Rng rng(31 + lanes);
      std::vector<double> signals(n * lanes);
      for (auto& v : signals) v = rng.gaussian();
      expect_matches_per_lane<double>(
          signals, lanes,
          dsp::Periodogram::many_real(signals, lanes, 1.0e6,
                                      dsp::WindowKind::kHann, pool));
    }
  }
}

TEST(Periodogram, ManyComplexMatchesPerLane) {
  const std::size_t n = 256;
  for (const std::size_t threads : {1u, 2u, 7u}) {
    par::ThreadPool pool(threads);
    for (const std::size_t lanes : {1u, 3u, 5u, 33u}) {
      SCOPED_TRACE(testing::Message() << threads << " threads, " << lanes
                                      << " lanes");
      const auto signals = random_complex(n * lanes, 37 + lanes);
      expect_matches_per_lane<dsp::cplx>(
          signals, lanes,
          dsp::Periodogram::many_complex(signals, lanes, 1.0e6,
                                         dsp::WindowKind::kHann, pool));
    }
  }
}

TEST(Periodogram, ChargesFftPointsPerBatch) {
  // One batch of `lanes` captures of n points charges lanes * n FFT
  // points once, real or complex, though its lanes run on two workers.
  obs::Registry& reg = obs::registry();
  const bool was_enabled = reg.enabled();
  reg.reset_values();
  reg.set_enabled(true);

  par::ThreadPool pool(2);
  const std::vector<double> real(3 * 512, 0.5);
  (void)dsp::Periodogram::many_real(real, 3, 1.0e6, dsp::WindowKind::kHann,
                                    pool);
  const std::uint64_t real_points = reg.counter("dsp.fft.points").value();
  const auto baseband = random_complex(5 * 64, 47);
  (void)dsp::Periodogram::many_complex(baseband, 5, 1.0e6,
                                       dsp::WindowKind::kHann, pool);
  const std::uint64_t complex_points =
      reg.counter("dsp.fft.points").value() - real_points;

  reg.set_enabled(was_enabled);
  reg.reset_values();
  EXPECT_EQ(real_points, 3u * 512u);
  EXPECT_EQ(complex_points, 5u * 64u);
}

// ---------------------------------------------------------------------
// ReceiverBatch streaming: parity with reference::Receiver across windows
// ---------------------------------------------------------------------

/// Lane configs for the chunk tests: the default loop (clocked, closed,
/// its bit stream toggles the backend's slicer), the same loop with the
/// output buffer in path and a shorter loop delay, and a random key.
std::vector<rf::ReceiverConfig> chunk_test_configs(
    const rf::Standard& standard) {
  rf::ReceiverConfig live;
  live.digital_mode = standard.digital_mode;
  rf::ReceiverConfig buffered = live;
  buffered.modulator.buffer_in_path = true;
  buffered.modulator.loop_delay = 3;
  sim::Rng rng(808);
  return {live, buffered,
          lock::decode_key(Key64::random(rng), standard.digital_mode)};
}

/// Stimulus whose samples do not repeat with the chunk length, so a
/// chunk read at the wrong offset sees different input.
std::vector<double> chunk_test_tone(const rf::Standard& standard,
                                    std::size_t n) {
  return rf::make_test_tone(standard, -25.0, n, /*offset_hz=*/1.7e6);
}

/// Index of the first sample where `got` differs from `want` (exact
/// comparison), or want.size() when they agree.
template <typename T>
std::size_t first_mismatch(std::span<const T> got,
                           const std::vector<T>& want) {
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (!(got[i] == want[i])) return i;
  }
  return want.size();
}

TEST(ReceiverBatch, ModulatorCaptureMatchesReceiverAcrossChunks) {
  // Lengths around the 4096-sample stepping chunk and the noise window:
  // one partial chunk, exactly one chunk, three chunks plus a tail, one
  // window, three windows plus a tail. A wrong offset or lane state lost
  // between chunks or windows shows up as a mismatch after a boundary.
  constexpr std::size_t kChunk = 4096;
  constexpr std::size_t kWindow = rf::ReceiverBatch::kNoiseWindow;
  constexpr std::size_t kSettle = 100;
  const rf::Standard& standard = rf::standard_max_3ghz();
  sim::Rng chip_rng(909);
  const auto pv = sim::ProcessVariation::monte_carlo(chip_rng, 0);
  const sim::Rng rng = chip_rng.fork("chip");
  const auto configs = chunk_test_configs(standard);
  par::ThreadPool pool(2);
  for (const std::size_t n : {std::size_t{1000}, kChunk, 3 * kChunk + 17,
                              kWindow, 3 * kWindow + 17}) {
    const auto rf_in = chunk_test_tone(standard, n);
    for (const std::size_t lanes : {std::size_t{1}, std::size_t{3}}) {
      rf::ReceiverBatch batch(
          standard, pv, rng,
          std::span<const rf::ReceiverConfig>(configs.data(), lanes));
      const auto out = batch.capture_modulator(rf_in, kSettle, pool);
      const std::size_t n_mod = n - kSettle;
      ASSERT_EQ(out.size(), lanes * n_mod);
      for (std::size_t l = 0; l < lanes; ++l) {
        reference::Receiver ref(standard, pv, rng);
        ref.configure(configs[l]);
        const auto capture = ref.capture_modulator(rf_in, kSettle);
        ASSERT_EQ(capture.output.size(), n_mod);
        EXPECT_EQ(first_mismatch(std::span<const double>(out).subspan(
                                     l * n_mod, n_mod),
                                 capture.output),
                  n_mod)
            << "n=" << n << " lanes=" << lanes << " lane=" << l;
      }
    }
  }
}

TEST(ReceiverBatch, ReceiverCaptureMatchesReceiverAcrossChunks) {
  constexpr std::size_t kSettle = 100;
  constexpr std::size_t kSettleBaseband = 16;
  constexpr std::size_t kPoints = 1024;
  const rf::Standard& standard = rf::standard_max_3ghz();
  sim::Rng chip_rng(910);
  const auto pv = sim::ProcessVariation::monte_carlo(chip_rng, 0);
  const sim::Rng rng = chip_rng.fork("chip");
  const auto configs = chunk_test_configs(standard);
  const std::size_t n =
      rf::receiver_input_length(kPoints, kSettle, kSettleBaseband);
  ASSERT_GT(n, rf::ReceiverBatch::kNoiseWindow);
  ASSERT_NE(n % rf::ReceiverBatch::kNoiseWindow, 0u);
  const auto rf_in = chunk_test_tone(standard, n);
  par::ThreadPool pool(2);
  for (const std::size_t lanes : {std::size_t{1}, std::size_t{3}}) {
    rf::ReceiverBatch batch(
        standard, pv, rng,
        std::span<const rf::ReceiverConfig>(configs.data(), lanes));
    const auto out = batch.capture_receiver(rf_in, kSettle, kPoints,
                                            kSettleBaseband, pool);
    ASSERT_EQ(out.size(), lanes * kPoints);
    for (std::size_t l = 0; l < lanes; ++l) {
      reference::Receiver ref(standard, pv, rng);
      ref.configure(configs[l]);
      auto bb = ref.capture_receiver(rf_in, kSettle, kSettleBaseband)
                    .baseband.samples;
      ASSERT_GE(bb.size(), kPoints);
      bb.resize(kPoints);
      if (l == 0) {
        // The live loop must drive the backend, or parity is trivial.
        ASSERT_NE(std::abs(bb.back()), 0.0);
      }
      EXPECT_EQ(first_mismatch(std::span<const std::complex<double>>(out)
                                   .subspan(l * kPoints, kPoints),
                               bb),
                kPoints)
          << "lanes=" << lanes << " lane=" << l;
    }
  }
}

/// One capture of a sequential-parity run: the config of lane 0 (later
/// lanes shift its tank codes, keeping its Gmin and buffer flags), the
/// transient length and settle, and — for a receiver capture — the
/// baseband points (0 selects a modulator capture).
struct SequentialStep {
  rf::ReceiverConfig config;
  std::size_t n;
  std::size_t settle;
  std::size_t baseband_points = 0;
};

/// Oscillation-mode readings as the calibration tuners take them, with
/// varied Cc/Cf/q and the tuners' lengths (6144, 36864, and 65536, which
/// crosses a noise window). Oscillation mode reads none of the VGLNA,
/// comparator and DAC deviates, so the batch skips those streams. The
/// odd-length capture leaves a cached Box–Muller deviate in every stream
/// for the next one to consume; the open-loop capture with the
/// comparator on the test mux then reads the skipped comparator stream
/// (and still skips the DAC's); the Gmin-on, buffer-off capture reads
/// the skipped VGLNA stream, advances the Gmin stream and skips the
/// buffer's; a closing receiver capture runs the backend and the closed
/// loop after them.
std::vector<SequentialStep> sequential_steps(const rf::Standard& standard) {
  auto osc = [](std::uint32_t cc, std::uint32_t cf, std::uint32_t q) {
    rf::ReceiverConfig c;
    c.modulator = calib::oscillation_mode_config(cc, cf, q);
    return c;
  };
  rf::ReceiverConfig comparator_out = osc(10, 64, 40);
  comparator_out.modulator.test_mux = 0;
  rf::ReceiverConfig gmin_live = osc(9, 96, 30);
  gmin_live.modulator.gmin_enable = true;
  gmin_live.modulator.buffer_in_path = false;
  rf::ReceiverConfig mission;
  mission.digital_mode = standard.digital_mode;
  constexpr std::size_t kPoints = 128;
  return {
      {osc(9, 128, 63), 36864, 4096},
      {osc(12, 40, 63), 6144, 4096},
      {osc(9, 200, 27), 6144 + 1001, 4096},
      {comparator_out, 6144, 4096},
      {gmin_live, 6144, 4096},
      {osc(8, 0, 26), 65536, 32768},
      {osc(9, 255, 63), 36864, 4096},
      {mission, rf::receiver_input_length(kPoints, 100, 16), 100, kPoints},
  };
}

/// Lane `lane`'s config at `step`: lane 0 runs the step's config, the
/// others shift its tank codes.
rf::ReceiverConfig lane_config(const SequentialStep& step, std::size_t lane) {
  rf::ReceiverConfig c = step.config;
  c.modulator.cap_coarse += static_cast<std::uint32_t>(lane);
  c.modulator.cap_fine = (c.modulator.cap_fine + 37 * lane) % 256;
  return c;
}

TEST(ReceiverBatch, SequentialCapturesMatchReceiver) {
  // A batch reconfigured and captured again and again continues its
  // noise streams like a scalar chip taken through configure / reset /
  // capture: every capture of every lane matches to the last bit.
  const rf::Standard& standard = rf::standard_max_3ghz();
  sim::Rng chip_rng(911);
  const auto pv = sim::ProcessVariation::monte_carlo(chip_rng, 2);
  const sim::Rng rng = chip_rng.fork("chip");
  const auto steps = sequential_steps(standard);
  ASSERT_GE(steps.size(), 6u);

  // Scalar references, one chip per lane, shared by both pool sizes.
  constexpr std::size_t kMaxLanes = 3;
  std::vector<std::vector<std::vector<double>>> want(kMaxLanes);
  for (std::size_t l = 0; l < kMaxLanes; ++l) {
    reference::Receiver ref(standard, pv, rng);
    for (const SequentialStep& step : steps) {
      ref.configure(lane_config(step, l));
      ref.reset();
      const std::vector<double> zeros(step.n, 0.0);
      if (step.baseband_points == 0) {
        want[l].push_back(ref.capture_modulator(zeros, step.settle).output);
        continue;
      }
      const auto bb =
          ref.capture_receiver(zeros, step.settle, 16).baseband.samples;
      std::vector<double> flat;
      for (std::size_t i = 0; i < step.baseband_points; ++i) {
        flat.push_back(bb[i].real());
        flat.push_back(bb[i].imag());
      }
      want[l].push_back(std::move(flat));
    }
  }

  for (const std::size_t threads : {std::size_t{1}, std::size_t{7}}) {
    par::ThreadPool pool(threads);
    for (const std::size_t lanes : {std::size_t{1}, kMaxLanes}) {
      rf::ReceiverBatch batch(standard, pv, rng);
      for (std::size_t k = 0; k < steps.size(); ++k) {
        const SequentialStep& step = steps[k];
        std::vector<rf::ReceiverConfig> configs;
        for (std::size_t l = 0; l < lanes; ++l) {
          configs.push_back(lane_config(step, l));
        }
        batch.configure(configs);
        const std::vector<double> zeros(step.n, 0.0);
        std::vector<double> got;
        if (step.baseband_points == 0) {
          got = batch.capture_modulator(zeros, step.settle, pool);
        } else {
          for (const auto& z :
               batch.capture_receiver(zeros, step.settle,
                                      step.baseband_points, 16, pool)) {
            got.push_back(z.real());
            got.push_back(z.imag());
          }
        }
        const std::size_t per_lane = want[0][k].size();
        ASSERT_EQ(got.size(), lanes * per_lane);
        for (std::size_t l = 0; l < lanes; ++l) {
          EXPECT_EQ(first_mismatch(std::span<const double>(got).subspan(
                                       l * per_lane, per_lane),
                                   want[l][k]),
                    per_lane)
              << "threads=" << threads << " lanes=" << lanes
              << " capture=" << k << " lane=" << l;
        }
      }
    }
  }
}

/// Lane configs of mixed control signatures for the pipelining tests,
/// all in `standard`'s digital mode: the default closed loop, the same
/// loop buffered with a short delay, an oscillation-mode chip (Gmin off,
/// loop open, preamp on the mux, buffer in path), an unclocked
/// comparator on the mux with Gmin off, and a random key.
std::vector<rf::ReceiverConfig> mixed_signature_configs(
    const rf::Standard& standard) {
  rf::ReceiverConfig live;
  live.digital_mode = standard.digital_mode;
  rf::ReceiverConfig buffered = live;
  buffered.modulator.buffer_in_path = true;
  buffered.modulator.loop_delay = 3;
  rf::ReceiverConfig osc = live;
  osc.modulator = calib::oscillation_mode_config(9, 128, 63);
  rf::ReceiverConfig unclocked = live;
  unclocked.modulator.gmin_enable = false;
  unclocked.modulator.comp_clock_enable = false;
  unclocked.modulator.test_mux = 0;
  sim::Rng rng(812);
  return {live, buffered, osc, unclocked,
          lock::decode_key(Key64::random(rng), standard.digital_mode)};
}

TEST(ReceiverBatch, PipelinedCapturesMatchReceiver) {
  // Lengths on both sides of a piece cut (about 4096 deviates), of the
  // half-window slot and of the window: one window drawn whole (8191 to
  // 16384), then two, three and a half, and four and a half slots
  // streamed with each slot's noise drawn behind the lane pass of the one
  // before. One lane leaves the other workers to draw; 33 lanes of mixed
  // control signatures split unevenly over every pool size, and the
  // workers draw in their tails. Every lane matches its scalar chip to
  // the last bit.
  constexpr std::size_t kSettle = 100;
  const rf::Standard& standard = rf::standard_max_3ghz();
  sim::Rng chip_rng(916);
  const auto pv = sim::ProcessVariation::monte_carlo(chip_rng, 0);
  const sim::Rng rng = chip_rng.fork("chip");
  const auto base = mixed_signature_configs(standard);
  constexpr std::size_t kLanes = 33;
  std::vector<rf::ReceiverConfig> configs;
  for (std::size_t l = 0; l < kLanes; ++l) {
    rf::ReceiverConfig c = base[l % base.size()];
    c.modulator.cap_fine = (c.modulator.cap_fine + 29 * l) % 256;
    configs.push_back(c);
  }
  for (const std::size_t n : {8191, 8192, 8193, 16383, 16384, 16385, 36864,
                              65536}) {
    const auto rf_in = chunk_test_tone(standard, n);
    const std::size_t n_mod = n - kSettle;
    std::vector<std::vector<double>> want;
    for (const rf::ReceiverConfig& c : configs) {
      reference::Receiver ref(standard, pv, rng);
      ref.configure(c);
      want.push_back(ref.capture_modulator(rf_in, kSettle).output);
    }
    for (const std::size_t threads : {1, 2, 3, 7}) {
      par::ThreadPool pool(threads);
      for (const std::size_t lanes : {std::size_t{1}, kLanes}) {
        rf::ReceiverBatch batch(
            standard, pv, rng,
            std::span<const rf::ReceiverConfig>(configs.data(), lanes));
        const auto out = batch.capture_modulator(rf_in, kSettle, pool);
        ASSERT_EQ(out.size(), lanes * n_mod);
        for (std::size_t l = 0; l < lanes; ++l) {
          EXPECT_EQ(first_mismatch(std::span<const double>(out).subspan(
                                       l * n_mod, n_mod),
                                   want[l]),
                    n_mod)
              << "n=" << n << " threads=" << threads << " lanes=" << lanes
              << " lane=" << l;
        }
      }
    }
  }
}

TEST(ReceiverBatch, OddCapturesCarryTheCacheAcrossPieces) {
  // Back-to-back odd-length captures on one chip: each leaves a cached
  // Box–Muller deviate in every stream, which the next capture's first
  // piece must hand out first, and odd slot lengths put piece cuts and
  // slot ends between the two deviates of a pair. Two lanes that agree
  // on Gmin and the buffer keep the streams going from capture to
  // capture; every capture matches the scalar chips at every pool size.
  constexpr std::size_t kSettle = 64;
  const rf::Standard& standard = rf::standard_max_3ghz();
  sim::Rng chip_rng(917);
  const auto pv = sim::ProcessVariation::monte_carlo(chip_rng, 1);
  const sim::Rng rng = chip_rng.fork("chip");
  const auto base = mixed_signature_configs(standard);
  // Two oscillation-mode lanes, then two closed loops with the buffer.
  std::array<std::vector<rf::ReceiverConfig>, 2> lanes;
  lanes[0] = {base[2], base[2]};
  lanes[0][1].modulator.cap_fine = 17;
  lanes[1] = {base[1], base[1]};
  lanes[1][1].modulator.cap_coarse = 11;
  const std::vector<std::size_t> lengths = {8193,  16383, 36865,
                                            4097,  16385, 24577};
  std::array<std::vector<std::vector<double>>, 2> want;
  for (std::size_t l = 0; l < 2; ++l) {
    reference::Receiver ref(standard, pv, rng);
    for (std::size_t k = 0; k < lengths.size(); ++k) {
      ref.configure(lanes[k % 2][l]);
      ref.reset();
      const std::vector<double> zeros(lengths[k], 0.0);
      want[l].push_back(ref.capture_modulator(zeros, kSettle).output);
    }
  }
  for (const std::size_t threads : {1, 2, 3, 7}) {
    par::ThreadPool pool(threads);
    rf::ReceiverBatch batch(standard, pv, rng);
    for (std::size_t k = 0; k < lengths.size(); ++k) {
      batch.configure(lanes[k % 2]);
      const std::vector<double> zeros(lengths[k], 0.0);
      const auto got = batch.capture_modulator(zeros, kSettle, pool);
      const std::size_t n_mod = lengths[k] - kSettle;
      ASSERT_EQ(got.size(), 2 * n_mod);
      for (std::size_t l = 0; l < 2; ++l) {
        EXPECT_EQ(first_mismatch(std::span<const double>(got).subspan(
                                     l * n_mod, n_mod),
                                 want[l][k]),
                  n_mod)
            << "threads=" << threads << " capture=" << k << " lane=" << l;
      }
    }
  }
}

TEST(ReceiverBatch, ChargesWorkCountersPerCapture) {
  // One capture of n samples charges lanes * n lane-samples and, per
  // stream the chips draw, n noise samples: 8 streams with Gmin and the
  // buffer on, 6 with both off. Of those, n per stream no lane reads are
  // skipped: none with Gmin on and the loop closed, the VGLNA's with Gmin
  // off, and the VGLNA, comparator and DAC streams in oscillation mode.
  // Of the lane-samples, those of lanes that run a pruned kernel count as
  // reduced: none of the closed loops', all of the oscillation lane's
  // (open loop, preamp on the mux: the no-quantiser kernel).
  obs::Registry& reg = obs::registry();
  const bool was_enabled = reg.enabled();
  reg.reset_values();
  reg.set_enabled(true);

  const rf::Standard& standard = rf::standard_max_3ghz();
  sim::Rng chip_rng(912);
  const auto pv = sim::ProcessVariation::monte_carlo(chip_rng, 0);
  rf::ReceiverConfig both_on;
  both_on.modulator.buffer_in_path = true;
  rf::ReceiverConfig both_off = both_on;
  both_off.modulator.gmin_enable = false;
  both_off.modulator.buffer_in_path = false;
  const std::vector<rf::ReceiverConfig> configs(3, both_on);
  rf::ReceiverBatch batch(standard, pv, chip_rng.fork("chip"), configs);
  par::ThreadPool pool(2);
  constexpr std::size_t kN = 5000;
  const std::vector<double> zeros(kN, 0.0);
  (void)batch.capture_modulator(zeros, 100, pool);
  const std::uint64_t lane_samples =
      reg.counter("rf.batch.lane_samples").value();
  const std::uint64_t noise_samples =
      reg.counter("rf.batch.noise_samples").value();
  const std::uint64_t skipped = reg.counter("rf.batch.noise_skipped").value();
  const auto reduced = [&reg] {
    return reg.counter("rf.batch.reduced_lane_samples").value();
  };
  batch.configure({&both_off, 1});
  (void)batch.capture_modulator(zeros, 100, pool);
  const std::uint64_t lane_samples_2 =
      reg.counter("rf.batch.lane_samples").value() - lane_samples;
  const std::uint64_t noise_samples_2 =
      reg.counter("rf.batch.noise_samples").value() - noise_samples;
  const std::uint64_t skipped_2 =
      reg.counter("rf.batch.noise_skipped").value() - skipped;
  const std::uint64_t reduced_2 = reduced();
  rf::ReceiverConfig osc;
  osc.modulator = calib::oscillation_mode_config(9, 128, 63);
  batch.configure({&osc, 1});
  (void)batch.capture_modulator(zeros, 100, pool);
  const std::uint64_t noise_samples_3 =
      reg.counter("rf.batch.noise_samples").value() - noise_samples -
      noise_samples_2;
  const std::uint64_t skipped_3 =
      reg.counter("rf.batch.noise_skipped").value() - skipped - skipped_2;
  const std::uint64_t overlapped_3 =
      reg.counter("rf.batch.noise_overlapped").value();
  const std::uint64_t reduced_3 = reduced() - reduced_2;
  // A tank-tuning reading: 36864 samples stream through four and a half
  // half-window slots, and every slot's draw but the first runs behind
  // the lane pass of the slot before.
  constexpr std::size_t kOsc = 36864;
  const std::vector<double> osc_zeros(kOsc, 0.0);
  (void)batch.capture_modulator(osc_zeros, 4096, pool);
  const std::uint64_t noise_samples_4 =
      reg.counter("rf.batch.noise_samples").value() - noise_samples -
      noise_samples_2 - noise_samples_3;
  const std::uint64_t skipped_4 = reg.counter("rf.batch.noise_skipped")
                                      .value() -
                                  skipped - skipped_2 - skipped_3;
  const std::uint64_t overlapped_4 =
      reg.counter("rf.batch.noise_overlapped").value() - overlapped_3;
  const std::uint64_t reduced_4 = reduced() - reduced_2 - reduced_3;
  // Two fixed lanes, an r1-only lane and a full one: three of four reduced.
  rf::ReceiverConfig fixed = both_on;
  fixed.modulator.test_mux = 3;
  rf::ReceiverConfig r1_only = both_on;
  r1_only.modulator.feedback_enable = false;
  r1_only.modulator.test_mux = 1;
  batch.configure(std::vector<rf::ReceiverConfig>{fixed, r1_only, both_on,
                                                  fixed});
  (void)batch.capture_modulator(zeros, 100, pool);
  const std::uint64_t reduced_5 =
      reduced() - reduced_2 - reduced_3 - reduced_4;

  reg.set_enabled(was_enabled);
  reg.reset_values();
  EXPECT_EQ(lane_samples, 3 * kN);
  EXPECT_EQ(noise_samples, 8 * kN);
  EXPECT_EQ(skipped, 0u);
  EXPECT_EQ(lane_samples_2, kN);
  EXPECT_EQ(noise_samples_2, 6 * kN);
  EXPECT_EQ(skipped_2, kN);
  // Oscillation mode keeps the buffer in path: 7 streams drawn, 3 unread.
  EXPECT_EQ(noise_samples_3, 7 * kN);
  EXPECT_EQ(skipped_3, 3 * kN);
  // Captures that fit in one window draw all their noise before the lanes.
  EXPECT_EQ(overlapped_3, 0u);
  EXPECT_EQ(noise_samples_4, 7 * kOsc);
  EXPECT_EQ(skipped_4, 3 * kOsc);
  EXPECT_EQ(overlapped_4, 7u * (kOsc - rf::ReceiverBatch::kNoiseWindow / 2));
  EXPECT_EQ(overlapped_4, 200704u);
  EXPECT_EQ(reduced_2, 0u);
  EXPECT_EQ(reduced_3, kN);
  EXPECT_EQ(reduced_4, kOsc);
  EXPECT_EQ(reduced_5, 3 * kN);
}

TEST(ReceiverBatch, ChargesSignatureGroupsPerCapture) {
  // Every capture charges the number of distinct (gmin_enable,
  // feedback_enable, comp_clock_enable, test_mux, buffer_in_path) tuples
  // among its lanes; tank, bias and delay codes do not count.
  obs::Registry& reg = obs::registry();
  const bool was_enabled = reg.enabled();
  reg.reset_values();
  reg.set_enabled(true);

  const rf::Standard& standard = rf::standard_max_3ghz();
  sim::Rng chip_rng(913);
  const auto pv = sim::ProcessVariation::monte_carlo(chip_rng, 0);
  rf::ReceiverConfig base;
  rf::ReceiverConfig retuned = base;
  retuned.modulator.cap_coarse = 200;
  retuned.modulator.q_enh = 40;
  rf::ReceiverConfig open_loop = base;
  open_loop.modulator.feedback_enable = false;
  rf::ReceiverConfig unclocked = base;
  unclocked.modulator.comp_clock_enable = false;
  rf::ReceiverConfig muxed = base;
  muxed.modulator.test_mux = 2;
  rf::ReceiverConfig no_gmin = base;
  no_gmin.modulator.gmin_enable = false;
  rf::ReceiverConfig buffered = base;
  buffered.modulator.buffer_in_path = true;

  const std::vector<rf::ReceiverConfig> one_group = {base, retuned, base};
  rf::ReceiverBatch batch(standard, pv, chip_rng.fork("chip"), one_group);
  par::ThreadPool pool(2);
  const std::vector<double> zeros(3000, 0.0);
  const auto groups = [&reg] {
    return reg.counter("rf.batch.signature_groups").value();
  };
  (void)batch.capture_modulator(zeros, 100, pool);
  const std::uint64_t first = groups();
  const std::vector<rf::ReceiverConfig> four_groups = {
      base, open_loop, unclocked, muxed, retuned, open_loop};
  batch.configure(four_groups);
  (void)batch.capture_modulator(zeros, 100, pool);
  const std::uint64_t second = groups() - first;
  // Lanes that disagree on Gmin or the buffer end the batch's captures.
  const std::vector<rf::ReceiverConfig> three_groups = {no_gmin, buffered,
                                                         base, no_gmin};
  batch.configure(three_groups);
  (void)batch.capture_modulator(zeros, 100, pool);
  const std::uint64_t third = groups() - first - second;

  reg.set_enabled(was_enabled);
  reg.reset_values();
  EXPECT_EQ(first, 1u);
  EXPECT_EQ(second, 4u);
  EXPECT_EQ(third, 3u);
}

TEST(ReceiverBatch, ChargesFrontEndsPerCapture) {
  // Every capture charges the number of distinct pass-1 front ends among
  // its lanes: the VGLNA gain and Gmin bias codes split them, tank codes
  // do not, and every Gmin-off lane shares one.
  obs::Registry& reg = obs::registry();
  const bool was_enabled = reg.enabled();
  reg.reset_values();
  reg.set_enabled(true);

  const rf::Standard& standard = rf::standard_max_3ghz();
  sim::Rng chip_rng(914);
  const auto pv = sim::ProcessVariation::monte_carlo(chip_rng, 0);
  rf::ReceiverConfig base;
  rf::ReceiverConfig retuned = base;
  retuned.modulator.cap_coarse = 200;
  retuned.modulator.q_enh = 40;
  rf::ReceiverConfig louder = base;
  louder.vglna_gain = 12;
  rf::ReceiverConfig biased = base;
  biased.modulator.gmin_bias = 40;
  rf::ReceiverConfig no_gmin = base;
  no_gmin.modulator.gmin_enable = false;
  rf::ReceiverConfig no_gmin_louder = louder;
  no_gmin_louder.modulator.gmin_enable = false;

  const std::vector<rf::ReceiverConfig> one = {base, retuned, base};
  rf::ReceiverBatch batch(standard, pv, chip_rng.fork("chip"), one);
  par::ThreadPool pool(2);
  const std::vector<double> zeros(3000, 0.0);
  const auto front_ends = [&reg] {
    return reg.counter("rf.batch.front_ends").value();
  };
  (void)batch.capture_modulator(zeros, 100, pool);
  const std::uint64_t first = front_ends();
  const std::vector<rf::ReceiverConfig> three = {base, louder, biased,
                                                 retuned, louder};
  batch.configure(three);
  (void)batch.capture_modulator(zeros, 100, pool);
  const std::uint64_t second = front_ends() - first;
  // Lanes that disagree on Gmin end the batch's captures.
  const std::vector<rf::ReceiverConfig> two = {no_gmin, no_gmin_louder, base};
  batch.configure(two);
  (void)batch.capture_modulator(zeros, 100, pool);
  const std::uint64_t third = front_ends() - first - second;

  reg.set_enabled(was_enabled);
  reg.reset_values();
  EXPECT_EQ(first, 1u);
  EXPECT_EQ(second, 3u);
  EXPECT_EQ(third, 2u);
}

TEST(ReceiverBatch, SharedFrontEndsMatchReceiver) {
  // Lanes interleave shared and distinct front ends — A, B, A, Gmin-off,
  // C, A, Gmin-off — so a worker's lanes reuse one pass-1 buffer, switch
  // between buffers and skip pass 1, in every split across 1, 2 and 7
  // workers. The A lanes differ in their tank codes, the Gmin-off lanes
  // in everything pass 1 would read. Every lane of every capture matches
  // its scalar chip to the last bit, across chunk and window boundaries.
  constexpr std::size_t kChunk = 4096;
  constexpr std::size_t kWindow = rf::ReceiverBatch::kNoiseWindow;
  constexpr std::size_t kSettle = 100;
  constexpr std::size_t kSettleBaseband = 16;
  constexpr std::size_t kPoints = 256;
  const rf::Standard& standard = rf::standard_max_3ghz();
  sim::Rng chip_rng(915);
  const auto pv = sim::ProcessVariation::monte_carlo(chip_rng, 0);
  const sim::Rng rng = chip_rng.fork("chip");

  rf::ReceiverConfig a;
  a.digital_mode = standard.digital_mode;
  const auto retune = [](rf::ReceiverConfig c, std::uint32_t coarse) {
    c.modulator.cap_coarse = coarse;
    return c;
  };
  rf::ReceiverConfig b = a;
  b.vglna_gain = 13;
  rf::ReceiverConfig c = a;
  c.modulator.gmin_bias = 20;
  rf::ReceiverConfig off_a = a;
  off_a.modulator.gmin_enable = false;
  rf::ReceiverConfig off_b = retune(b, 3);
  off_b.modulator.gmin_bias = 50;
  off_b.modulator.gmin_enable = false;
  const std::vector<rf::ReceiverConfig> configs = {
      a, b, retune(a, 2), off_a, c, retune(a, 5), off_b};

  // Each capture mixes Gmin on and off, so it is its batch's last.
  const auto check = [&](std::size_t n, std::size_t baseband_points,
                         par::ThreadPool& pool) {
    const auto rf_in = chunk_test_tone(standard, n);
    rf::ReceiverBatch batch(standard, pv, rng, configs);
    std::vector<double> got;
    if (baseband_points == 0) {
      got = batch.capture_modulator(rf_in, kSettle, pool);
    } else {
      for (const auto& z : batch.capture_receiver(
               rf_in, kSettle, baseband_points, kSettleBaseband, pool)) {
        got.push_back(z.real());
        got.push_back(z.imag());
      }
    }
    const std::size_t per_lane = got.size() / configs.size();
    for (std::size_t l = 0; l < configs.size(); ++l) {
      reference::Receiver ref(standard, pv, rng);
      ref.configure(configs[l]);
      std::vector<double> want;
      if (baseband_points == 0) {
        want = ref.capture_modulator(rf_in, kSettle).output;
      } else {
        const auto bb = ref.capture_receiver(rf_in, kSettle, kSettleBaseband)
                            .baseband.samples;
        for (std::size_t i = 0; i < baseband_points; ++i) {
          want.push_back(bb[i].real());
          want.push_back(bb[i].imag());
        }
      }
      ASSERT_EQ(want.size(), per_lane);
      EXPECT_EQ(first_mismatch(
                    std::span<const double>(got).subspan(l * per_lane,
                                                         per_lane),
                    want),
                per_lane)
          << "n=" << n << " baseband=" << baseband_points
          << " threads=" << pool.size() << " lane=" << l;
    }
  };
  for (const std::size_t threads : {1u, 2u, 7u}) {
    par::ThreadPool pool(threads);
    for (const std::size_t n : {std::size_t{1000}, 2 * kChunk + 5,
                                kWindow + kChunk + 17}) {
      check(n, 0, pool);
    }
    check(rf::receiver_input_length(kPoints, kSettle, kSettleBaseband),
          kPoints, pool);
  }
}

/// Every lane of one capture of `configs` (a fresh batch, so lanes may
/// mix Gmin and the buffer) equals its scalar chip's output to the last
/// bit: the post-settle modulator output when `baseband_points` is 0,
/// else that many baseband samples. `want` caches the scalar outputs per
/// (n, baseband_points) across pool sizes.
void expect_lanes_match_reference(
    const rf::Standard& standard, const sim::ProcessVariation& pv,
    const sim::Rng& rng, const std::vector<rf::ReceiverConfig>& configs,
    std::size_t n, std::size_t baseband_points, par::ThreadPool& pool,
    std::vector<std::vector<double>>& want, const char* what) {
  constexpr std::size_t kSettle = 100;
  constexpr std::size_t kSettleBaseband = 16;
  const auto rf_in = chunk_test_tone(standard, n);
  if (want.empty()) {
    for (const rf::ReceiverConfig& c : configs) {
      reference::Receiver ref(standard, pv, rng);
      ref.configure(c);
      if (baseband_points == 0) {
        want.push_back(ref.capture_modulator(rf_in, kSettle).output);
        continue;
      }
      const auto bb = ref.capture_receiver(rf_in, kSettle, kSettleBaseband)
                          .baseband.samples;
      std::vector<double> flat;
      for (std::size_t i = 0; i < baseband_points; ++i) {
        flat.push_back(bb[i].real());
        flat.push_back(bb[i].imag());
      }
      want.push_back(std::move(flat));
    }
  }
  rf::ReceiverBatch batch(standard, pv, rng, configs);
  std::vector<double> got;
  if (baseband_points == 0) {
    got = batch.capture_modulator(rf_in, kSettle, pool);
  } else {
    for (const auto& z : batch.capture_receiver(
             rf_in, kSettle, baseband_points, kSettleBaseband, pool)) {
      got.push_back(z.real());
      got.push_back(z.imag());
    }
  }
  const std::size_t per_lane = want[0].size();
  ASSERT_EQ(got.size(), configs.size() * per_lane);
  for (std::size_t l = 0; l < configs.size(); ++l) {
    EXPECT_EQ(first_mismatch(std::span<const double>(got).subspan(
                                 l * per_lane, per_lane),
                             want[l]),
              per_lane)
        << what << " n=" << n << " baseband=" << baseband_points
        << " threads=" << pool.size() << " lane=" << l;
  }
}

TEST(ReceiverBatch, EveryControlSignatureMatchesReceiver) {
  // One lane per control signature, 64 = Gmin x feedback x comparator
  // clock x buffer x test mux, so every pass-2 kernel (fixed, r1-only,
  // no-quantiser, full) runs beside the others in one batch. The mux
  // counts down from 3, so lane 0 is a fixed lane leading the Gmin-on
  // front end the lanes after it share, and the weighted split hands the
  // workers ranges of mixed kinds. A second batch leads one shared front
  // end with two fixed lanes, then an r1-only, a no-quantiser and a full
  // lane of that front end: pass 1 must still run for them. Modulator
  // captures cross the 4096-sample chunk and the noise window, the
  // receiver capture runs the backend across windows; 1, 2 and 7
  // threads. Every lane matches its scalar chip to the last bit.
  constexpr std::size_t kChunk = 4096;
  constexpr std::size_t kWindow = rf::ReceiverBatch::kNoiseWindow;
  constexpr std::size_t kPoints = 1024;
  const rf::Standard& standard = rf::standard_max_3ghz();
  sim::Rng chip_rng(918);
  const auto pv = sim::ProcessVariation::monte_carlo(chip_rng, 1);
  const sim::Rng rng = chip_rng.fork("chip");

  rf::ReceiverConfig base;
  base.digital_mode = standard.digital_mode;
  std::vector<rf::ReceiverConfig> signatures;
  for (unsigned s = 0; s < 64; ++s) {
    rf::ReceiverConfig c = base;
    c.modulator.test_mux = 3 - (s & 3u);
    c.modulator.gmin_enable = (s >> 2 & 1u) == 0;
    c.modulator.feedback_enable = (s >> 3 & 1u) == 0;
    c.modulator.comp_clock_enable = (s >> 4 & 1u) == 0;
    c.modulator.buffer_in_path = (s >> 5 & 1u) != 0;
    c.modulator.cap_fine = (c.modulator.cap_fine + 29 * s) % 256;
    signatures.push_back(c);
  }
  const auto with_mux = [&](bool feedback, std::uint32_t mux) {
    rf::ReceiverConfig c = base;
    c.modulator.feedback_enable = feedback;
    c.modulator.test_mux = mux;
    return c;
  };
  rf::ReceiverConfig fixed_buffered = with_mux(true, 3);
  fixed_buffered.modulator.buffer_in_path = true;
  const std::vector<rf::ReceiverConfig> fixed_leads = {
      with_mux(true, 3), fixed_buffered, with_mux(false, 1),
      with_mux(false, 2), with_mux(true, 0)};

  const std::size_t rx_n =
      rf::receiver_input_length(kPoints, 100, 16);
  ASSERT_GT(rx_n, kWindow);
  struct Capture {
    std::size_t n;
    std::size_t baseband_points;
  };
  const std::vector<Capture> captures = {
      {2 * kChunk + 5, 0}, {kWindow + kChunk + 17, 0}, {rx_n, kPoints}};
  std::vector<std::vector<std::vector<double>>> want_all(captures.size());
  std::vector<std::vector<std::vector<double>>> want_leads(captures.size());
  for (const std::size_t threads : {1u, 2u, 7u}) {
    par::ThreadPool pool(threads);
    for (std::size_t k = 0; k < captures.size(); ++k) {
      expect_lanes_match_reference(standard, pv, rng, signatures,
                                   captures[k].n,
                                   captures[k].baseband_points, pool,
                                   want_all[k], "signatures");
      expect_lanes_match_reference(standard, pv, rng, fixed_leads,
                                   captures[k].n,
                                   captures[k].baseband_points, pool,
                                   want_leads[k], "fixed leads");
    }
  }
}

// ---------------------------------------------------------------------
// BatchEvaluator parity
// ---------------------------------------------------------------------

/// Shortened captures keep the parity sweeps fast; one test below runs
/// the full default lengths.
lock::EvaluatorOptions fast_options() {
  lock::EvaluatorOptions opt;
  opt.fft_size = 1024;
  opt.sfdr_fft_size = 2048;
  opt.baseband_points = 256;
  opt.settle = 256;
  return opt;
}

/// A mixed bag of keys: nominal-ish, structured corruptions (including
/// the paper's deceptive un-clocked-comparator key), and random words.
std::vector<Key64> test_keys(std::uint64_t seed, std::size_t n_random) {
  using L = lock::KeyLayout;
  sim::Rng rng(seed);
  const Key64 base = Key64::random(rng);
  std::vector<Key64> keys = {
      Key64{},
      base,
      base.with_bit(L::kCompClockEnable, false),
      base.with_bit(L::kFeedbackEnable, false),
      base.with_field(L::kTestMux, 3),
  };
  for (std::size_t i = 0; i < n_random; ++i) {
    keys.push_back(Key64::random(rng));
  }
  return keys;
}

TEST(BatchEvaluator, EvaluateMatchesScalarBitExactly) {
  const auto keys = test_keys(101, 3);
  sim::Rng chip_rng(404);
  const auto pv = sim::ProcessVariation::monte_carlo(chip_rng, 1);

  LockEvaluator evaluator(rf::standard_max_3ghz(), pv, chip_rng.fork("chip"),
                          fast_options());
  BatchEvaluator batch(evaluator);

  const auto reports = batch.evaluate_batch(keys);
  ASSERT_EQ(reports.size(), keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const auto ref = reference::evaluate(evaluator, keys[i]);
    EXPECT_EQ(ref.snr_modulator_db, reports[i].snr_modulator_db) << i;
    EXPECT_EQ(ref.snr_receiver_db, reports[i].snr_receiver_db) << i;
    EXPECT_EQ(ref.sfdr_db, reports[i].sfdr_db) << i;
    EXPECT_EQ(ref.snr_ok, reports[i].snr_ok) << i;
    EXPECT_EQ(ref.sfdr_ok, reports[i].sfdr_ok) << i;
  }
}

TEST(BatchEvaluator, MatchesScalarAcrossCornersAndStandards) {
  const auto keys = test_keys(202, 2);
  const rf::Standard* standards[] = {&rf::standard_bluetooth(),
                                     &rf::standard_wifi_80211b()};
  for (const int corner : {0, 2}) {
    sim::Rng chip_rng(1000 + static_cast<std::uint64_t>(corner));
    const auto pv = sim::ProcessVariation::monte_carlo(chip_rng, corner);
    for (const rf::Standard* standard : standards) {
      LockEvaluator evaluator(*standard, pv, chip_rng.fork("chip"),
                              fast_options());
      BatchEvaluator batch(evaluator);
      const double dbm = evaluator.options().input_dbm;
      const auto rx = batch.snr_receiver_db(keys);
      const auto mod = batch.snr_modulator_db(keys);
      ASSERT_EQ(rx.size(), keys.size());
      for (std::size_t i = 0; i < keys.size(); ++i) {
        EXPECT_EQ(reference::snr_receiver_db(evaluator, keys[i], dbm), rx[i])
            << standard->name << " corner " << corner << " key " << i;
        EXPECT_EQ(reference::snr_modulator_db(evaluator, keys[i], dbm),
                  mod[i])
            << standard->name << " corner " << corner << " key " << i;
      }
    }
  }
}

TEST(BatchEvaluator, DefaultOptionsMatchScalar) {
  // Full paper-length captures (8192-pt FFT, 2048 baseband points).
  const auto keys = test_keys(303, 0);
  const std::span<const Key64> two(keys.data(), 2);
  sim::Rng chip_rng(42);
  const auto pv = sim::ProcessVariation::monte_carlo(chip_rng, 0);
  LockEvaluator evaluator(rf::standard_max_3ghz(), pv, chip_rng.fork("chip"));
  BatchEvaluator batch(evaluator);
  const auto rx = batch.snr_receiver_db(two);
  for (std::size_t i = 0; i < two.size(); ++i) {
    EXPECT_EQ(reference::snr_receiver_db(evaluator, two[i],
                                         evaluator.options().input_dbm),
              rx[i])
        << i;
  }
}

TEST(BatchEvaluator, ResultsIndependentOfThreadCount) {
  // Fifteen keys split unevenly across 3 and across 7 workers, both in
  // the transient and in the batch periodograms. The last six sit near
  // the random base key with its Gmin on: most share that front end, one
  // changes the VGLNA gain and one the Gmin bias, so workers reuse and
  // switch pass-1 buffers.
  using L = lock::KeyLayout;
  auto keys = test_keys(505, 4);
  const Key64 base = keys[1].with_bit(L::kGminEnable, true);
  const auto flip = [&base](unsigned bit) {
    return base.with_bit(bit, !base.bit(bit));
  };
  for (const unsigned bit : {L::kCapCoarse.lsb + 1, L::kVglnaGain.lsb,
                             L::kCapFine.lsb + 3, L::kGminBias.lsb + 2,
                             L::kQEnh.lsb, L::kPreampBias.lsb + 1}) {
    keys.push_back(flip(bit));
  }
  sim::Rng chip_rng(77);
  const auto pv = sim::ProcessVariation::monte_carlo(chip_rng, 0);

  par::ThreadPool pool1(1);
  LockEvaluator ev1(rf::standard_max_3ghz(), pv, chip_rng.fork("chip"),
                    fast_options());
  BatchEvaluator batch1(ev1, &pool1);
  const auto a = batch1.evaluate_batch(keys);
  for (const std::size_t threads : {3u, 7u}) {
    SCOPED_TRACE(testing::Message() << threads << " threads");
    par::ThreadPool pool(threads);
    LockEvaluator ev(rf::standard_max_3ghz(), pv, chip_rng.fork("chip"),
                     fast_options());
    BatchEvaluator batch(ev, &pool);
    const auto b = batch.evaluate_batch(keys);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].snr_modulator_db, b[i].snr_modulator_db) << i;
      EXPECT_EQ(a[i].snr_receiver_db, b[i].snr_receiver_db) << i;
      EXPECT_EQ(a[i].sfdr_db, b[i].sfdr_db) << i;
    }
  }
}

TEST(BatchEvaluator, FaultInjectorParity) {
  // An active injector perturbs every oracle reading; the batch must
  // replay the perturbation stream in per-key call order so values AND
  // injected-fault tallies match N per-key calls.
  fault::FaultPlan plan;
  plan.seed = 99;
  plan.meas_spike_prob = 0.4;
  plan.meas_dropout_prob = 0.1;
  plan.stuck_at0_bits = 2;
  plan.stuck_at1_bits = 1;

  const auto keys = test_keys(606, 3);
  sim::Rng chip_rng(314);
  const auto pv = sim::ProcessVariation::monte_carlo(chip_rng, 0);

  fault::FaultInjector per_key_injector(plan);
  fault::FaultInjector batch_injector(plan);
  LockEvaluator per_key(rf::standard_max_3ghz(), pv, chip_rng.fork("chip"),
                       fast_options());
  LockEvaluator wrapped(rf::standard_max_3ghz(), pv, chip_rng.fork("chip"),
                        fast_options());
  per_key.set_fault_injector(&per_key_injector);
  wrapped.set_fault_injector(&batch_injector);
  BatchEvaluator batch(wrapped);

  const auto reports = batch.evaluate_batch(keys);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const auto ref = per_key.evaluate(keys[i]);
    EXPECT_EQ(ref.snr_modulator_db, reports[i].snr_modulator_db) << i;
    EXPECT_EQ(ref.snr_receiver_db, reports[i].snr_receiver_db) << i;
    EXPECT_EQ(ref.sfdr_db, reports[i].sfdr_db) << i;
  }
  EXPECT_EQ(per_key_injector.counts().meas_spikes,
            batch_injector.counts().meas_spikes);
  EXPECT_EQ(per_key_injector.counts().meas_dropouts,
            batch_injector.counts().meas_dropouts);
}

TEST(BatchEvaluator, TrialCountsMatchScalar) {
  const auto keys = test_keys(707, 2);
  sim::Rng chip_rng(55);
  const auto pv = sim::ProcessVariation::monte_carlo(chip_rng, 0);
  LockEvaluator per_key(rf::standard_max_3ghz(), pv, chip_rng.fork("chip"),
                       fast_options());
  LockEvaluator wrapped(rf::standard_max_3ghz(), pv, chip_rng.fork("chip"),
                        fast_options());
  BatchEvaluator batch(wrapped);

  for (const Key64& key : keys) (void)per_key.evaluate(key);
  (void)batch.evaluate_batch(keys);
  EXPECT_EQ(per_key.trial_counts().snr_modulator,
            wrapped.trial_counts().snr_modulator);
  EXPECT_EQ(per_key.trial_counts().snr_receiver,
            wrapped.trial_counts().snr_receiver);
  EXPECT_EQ(per_key.trial_counts().sfdr, wrapped.trial_counts().sfdr);
  EXPECT_EQ(per_key.trials(), wrapped.trials());

  (void)batch.snr_receiver_db(keys);
  EXPECT_EQ(wrapped.trial_counts().snr_receiver, 2 * keys.size());
}

// ---------------------------------------------------------------------
// Noise prefix: captures that fit in it read it instead of drawing
// ---------------------------------------------------------------------

TEST(NoisePrefix, ServedCapturesMatchColdCaptures) {
  // Batches whose lanes mix the control signatures, so the prefix fills
  // stream by stream: the buffer stream is drawn in some batches and not
  // in others, the Gmin stream likewise, and a Gmin-off batch leaves the
  // VGLNA stream unread. Each capture served from one shared prefix, one
  // shorter than it and one exactly as long, equals a cold batch's
  // capture to the last bit, on 1 and 7 threads; a capture one sample
  // longer than the prefix draws its own noise and still matches.
  const rf::Standard& standard = rf::standard_max_3ghz();
  sim::Rng chip_rng(915);
  const auto pv = sim::ProcessVariation::monte_carlo(chip_rng, 0);
  const sim::Rng rng = chip_rng.fork("chip");
  constexpr std::size_t kLength = 5000;
  constexpr std::size_t kSettle = 100;
  rf::ReceiverConfig mission;
  mission.digital_mode = standard.digital_mode;
  rf::ReceiverConfig buffered = mission;
  buffered.modulator.buffer_in_path = true;
  rf::ReceiverConfig no_gmin = mission;
  no_gmin.modulator.gmin_enable = false;
  sim::Rng key_rng(916);
  std::vector<rf::ReceiverConfig> random;
  for (int i = 0; i < 5; ++i) {
    random.push_back(
        lock::decode_key(Key64::random(key_rng), standard.digital_mode));
  }
  const std::vector<std::vector<rf::ReceiverConfig>> batches = {
      {mission, mission}, {no_gmin}, random, {buffered, mission, no_gmin}};

  for (const std::size_t threads : {std::size_t{1}, std::size_t{7}}) {
    par::ThreadPool pool(threads);
    rf::ReceiverBatch::NoisePrefix prefix(rng, kLength);
    for (const auto& configs : batches) {
      for (const std::size_t n : {kLength - 1000, kLength, kLength + 1}) {
        const auto rf_in = chunk_test_tone(standard, n);
        rf::ReceiverBatch cold(standard, pv, rng, configs);
        rf::ReceiverBatch served(standard, pv, rng, configs, &prefix);
        const auto want = cold.capture_modulator(rf_in, kSettle, pool);
        const auto got = served.capture_modulator(rf_in, kSettle, pool);
        ASSERT_EQ(got.size(), want.size());
        EXPECT_EQ(first_mismatch(std::span<const double>(got), want),
                  want.size())
            << "threads=" << threads << " lanes=" << configs.size()
            << " n=" << n;
      }
    }
  }
}

TEST(NoisePrefix, ServedReadingsMatchTheReference) {
  // Every modulator-SNR and SFDR reading of these options fits in the
  // evaluator's prefix. Under a campaign with stuck-at bits, on 1 and 7
  // threads, mixed-signature random keys read the scalar reference chip's
  // values, on the reading that fills the prefix and on the ones served
  // from it. A receiver reading between them is too long for the prefix,
  // releases it and matches too.
  fault::FaultPlan plan;
  plan.seed = 31;
  plan.stuck_at0_bits = 2;
  plan.stuck_at1_bits = 2;
  const auto keys = test_keys(808, 4);
  sim::Rng chip_rng(917);
  const auto pv = sim::ProcessVariation::monte_carlo(chip_rng, 0);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{7}}) {
    SCOPED_TRACE(testing::Message() << threads << " threads");
    par::ThreadPool pool(threads);
    fault::FaultInjector injector(plan);
    LockEvaluator evaluator(rf::standard_max_3ghz(), pv,
                            chip_rng.fork("chip"), fast_options());
    evaluator.set_fault_injector(&injector);
    BatchEvaluator batch(evaluator, &pool);
    const double dbm = evaluator.options().input_dbm;
    const double tone_dbm = evaluator.options().two_tone_dbm;
    for (int round = 0; round < 3; ++round) {
      const auto mod = batch.clean_snr_modulator(keys, dbm);
      const auto sfdr = batch.clean_sfdr(keys, tone_dbm);
      for (std::size_t i = 0; i < keys.size(); ++i) {
        EXPECT_EQ(reference::snr_modulator_db(evaluator, keys[i], dbm),
                  mod[i])
            << "round " << round << " key " << i;
        EXPECT_EQ(reference::sfdr_db(evaluator, keys[i], tone_dbm), sfdr[i])
            << "round " << round << " key " << i;
      }
      if (round == 1) {
        const std::span<const Key64> two(keys.data(), 2);
        const auto rx = batch.clean_snr_receiver(two, dbm);
        for (std::size_t i = 0; i < two.size(); ++i) {
          EXPECT_EQ(reference::snr_receiver_db(evaluator, two[i], dbm), rx[i])
              << "key " << i;
        }
      }
    }
  }
}

TEST(NoisePrefix, SecondReadingDrawsNoNoise) {
  // The first modulator reading of an evaluator draws the prefix: a
  // noise window of each of the 7 streams a mission-mode chip reads
  // (the buffer is out of path). It and the identical second reading
  // each read n deviates per stream from the prefix, and the second
  // draws none and reads the same value. A receiver reading releases
  // the prefix, so the next modulator reading draws it again.
  obs::Registry& reg = obs::registry();
  const bool was_enabled = reg.enabled();
  reg.reset_values();
  reg.set_enabled(true);

  const rf::Standard& standard = rf::standard_max_3ghz();
  sim::Rng chip_rng(918);
  const auto pv = sim::ProcessVariation::monte_carlo(chip_rng, 0);
  LockEvaluator evaluator(standard, pv, chip_rng.fork("chip"));
  rf::ReceiverConfig mission;
  mission.digital_mode = standard.digital_mode;
  const Key64 key = lock::encode_key(mission);
  const std::uint64_t n =
      evaluator.options().settle + evaluator.options().fft_size;
  struct Counts {
    std::uint64_t drawn, cached;
  };
  const auto counts = [&reg] {
    return Counts{reg.counter("rf.batch.noise_samples").value(),
                  reg.counter("rf.batch.noise_cached").value()};
  };
  const auto delta = [&](const Counts& before) {
    const Counts now = counts();
    return Counts{now.drawn - before.drawn, now.cached - before.cached};
  };
  Counts mark = counts();
  const double first = evaluator.snr_modulator_db(key);
  const Counts filled = delta(mark);
  mark = counts();
  const double second = evaluator.snr_modulator_db(key);
  const Counts served = delta(mark);
  (void)evaluator.snr_receiver_db(key);
  mark = counts();
  const double third = evaluator.snr_modulator_db(key);
  const Counts refilled = delta(mark);

  reg.set_enabled(was_enabled);
  reg.reset_values();
  // The prefix holds the longest reading that fits: 10240 samples here,
  // the modulator reading's own length.
  EXPECT_EQ(filled.drawn, 7 * n);
  EXPECT_EQ(filled.cached, 7 * n);
  EXPECT_EQ(served.drawn, 0u);
  EXPECT_EQ(served.cached, 7 * n);
  EXPECT_EQ(refilled.drawn, 7 * n);
  EXPECT_EQ(refilled.cached, 7 * n);
  EXPECT_EQ(first, second);
  EXPECT_EQ(first, third);
}

}  // namespace
