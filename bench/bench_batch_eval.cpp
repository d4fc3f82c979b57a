// Batched-evaluation engine benchmark: per-key LockEvaluator calls (each
// a batch of one) vs lock::BatchEvaluator on the same key set,
// single-threaded (the SoA + shared-noise/FFT win) and with the full
// thread pool (the fan-out win). The `*_scalar` cases time the per-key
// calls; tools/bench_compare.py pairs cases on that suffix.
// Before timing anything it verifies the engine's bit-exactness contract
// against the block-level scalar reference recipe
// (tests/reference_oracle.h) on the exact workload being timed, so the
// reported numbers are for an identical-output computation by
// construction.
//
// The batched SNR cases run at 1 thread, 2 threads and the full pool:
// the lanes are random keys, so about half of them run a pruned
// pass-2 kernel (see rf/receiver_batch.h) and the pool splits the lanes
// by kernel weight.
//
// Layer cases follow at 1, 2 and 4 threads. Three are oscillation-mode
// captures of a one-lane chip, as the calibration tuners take them:
// `osc_reading_t*`, a 36864-sample tank-tuning reading at -Gm code 63;
// `osc_reading_q25_t*`, the same reading at code 25, near the
// oscillation threshold, where the lane pass is shorter and the noise
// draw a larger share; and `osc_reading_gentle_t*`, the 65536-sample
// fine-retune reading at a gentle code. `fft_real_8192_t*` times the
// lanes' 8192-point real-FFT periodograms sharded across the pool.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "calib/oscillation_tuner.h"
#include "dsp/spectrum.h"
#include "lock/batch_evaluator.h"
#include "par/thread_pool.h"
#include "reference_oracle.h"
#include "rf/receiver_batch.h"

namespace {
// Streams this bench's event record to bench_batch_eval.jsonl.
const analock::bench::ObsSession kObsSession("bench_batch_eval");
}  // namespace

namespace {

using namespace analock;

struct Setup {
  sim::ProcessVariation pv;
  sim::Rng chip_rng;
  std::vector<lock::Key64> keys;
};

Setup make_setup(std::size_t lanes) {
  sim::Rng master(bench::kBenchSeed);
  Setup s{sim::ProcessVariation::monte_carlo(master, 0),
          master.fork("chip", 0), {}};
  sim::Rng key_rng(4242);
  s.keys.reserve(lanes);
  for (std::size_t i = 0; i < lanes; ++i) {
    s.keys.push_back(lock::Key64::random(key_rng));
  }
  return s;
}

/// Bit-exactness gate: per-key and batched values (1 thread and N
/// threads) must equal the scalar reference recipe's, else the
/// timings below compare different computations.
bool verify_parity(const Setup& s, par::ThreadPool& pool1,
                   par::ThreadPool& pool_max) {
  const rf::Standard& standard = rf::standard_max_3ghz();
  lock::LockEvaluator per_key(standard, s.pv, s.chip_rng);
  lock::LockEvaluator ev1(standard, s.pv, s.chip_rng);
  lock::LockEvaluator evn(standard, s.pv, s.chip_rng);
  lock::BatchEvaluator batch1(ev1, &pool1);
  lock::BatchEvaluator batchn(evn, &pool_max);
  const double dbm = per_key.options().input_dbm;
  const auto rx1 = batch1.snr_receiver_db(s.keys);
  const auto rxn = batchn.snr_receiver_db(s.keys);
  const auto mod1 = batch1.snr_modulator_db(s.keys);
  const auto modn = batchn.snr_modulator_db(s.keys);
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < s.keys.size(); ++i) {
    const double rx = reference::snr_receiver_db(per_key, s.keys[i], dbm);
    const double mod = reference::snr_modulator_db(per_key, s.keys[i], dbm);
    if (rx != rx1[i] || rx != rxn[i] ||
        rx != per_key.snr_receiver_db(s.keys[i]) || mod != mod1[i] ||
        mod != modn[i] || mod != per_key.snr_modulator_db(s.keys[i])) {
      ++mismatches;
    }
  }
  if (mismatches != 0) {
    std::fprintf(stderr,
                 "FATAL: mismatch with the scalar reference on %zu "
                 "of %zu keys\n",
                 mismatches, s.keys.size());
    return false;
  }
  std::printf("parity: per-key and batch == scalar reference "
              "bit-exact on %zu keys (1 and %zu threads)\n",
              s.keys.size(), pool_max.size());
  return true;
}

}  // namespace

int main() {
  bench::Harness h("bench_batch_eval");
  const std::size_t lanes =
      static_cast<std::size_t>(std::max<std::uint64_t>(
          1, bench::trials_budget(32)));
  const std::size_t threads = par::ThreadPool::default_thread_count();
  const Setup setup = make_setup(lanes);
  par::ThreadPool pool1(1);
  par::ThreadPool pool2(2);
  par::ThreadPool pool_max(threads);

  bench::banner("Batched SNR evaluation engine",
                "per-key LockEvaluator vs BatchEvaluator, receiver + "
                "modulator SNR oracles");
  std::printf("lanes=%zu threads=%zu\n", lanes, threads);
  if (!verify_parity(setup, pool1, pool_max)) return 1;

  const rf::Standard& standard = rf::standard_max_3ghz();
  lock::LockEvaluator ev_scalar(standard, setup.pv, setup.chip_rng);
  lock::LockEvaluator ev_b1(standard, setup.pv, setup.chip_rng);
  lock::LockEvaluator ev_b2(standard, setup.pv, setup.chip_rng);
  lock::LockEvaluator ev_bn(standard, setup.pv, setup.chip_rng);
  lock::BatchEvaluator batch1(ev_b1, &pool1);
  lock::BatchEvaluator batch2(ev_b2, &pool2);
  lock::BatchEvaluator batchn(ev_bn, &pool_max);

  const double lanes_d = static_cast<double>(lanes);
  const double threads_d = static_cast<double>(threads);
  bench::CaseOptions t1_opt;
  t1_opt.ops_per_rep = lanes_d;
  t1_opt.notes = {{"lanes", lanes_d}, {"threads", 1.0}};
  bench::CaseOptions t2_opt = t1_opt;
  t2_opt.notes = {{"lanes", lanes_d}, {"threads", 2.0}};
  bench::CaseOptions tmax_opt = t1_opt;
  tmax_opt.notes = {{"lanes", lanes_d}, {"threads", threads_d}};
  // Per-key calls are batches of one on the shared pool.
  const bench::CaseOptions scalar_opt = tmax_opt;

  h.add_case(
      "snr_rx_scalar",
      [&] {
        for (const auto& key : setup.keys) {
          bench::do_not_optimize(ev_scalar.snr_receiver_db(key));
        }
      },
      scalar_opt);
  h.add_case(
      "snr_rx_batch_t1",
      [&] { bench::do_not_optimize(batch1.snr_receiver_db(setup.keys)); },
      t1_opt);
  h.add_case(
      "snr_rx_batch_t2",
      [&] { bench::do_not_optimize(batch2.snr_receiver_db(setup.keys)); },
      t2_opt);
  h.add_case(
      "snr_rx_batch_tmax",
      [&] { bench::do_not_optimize(batchn.snr_receiver_db(setup.keys)); },
      tmax_opt);
  h.add_case(
      "snr_mod_scalar",
      [&] {
        for (const auto& key : setup.keys) {
          bench::do_not_optimize(ev_scalar.snr_modulator_db(key));
        }
      },
      scalar_opt);
  h.add_case(
      "snr_mod_batch_t1",
      [&] { bench::do_not_optimize(batch1.snr_modulator_db(setup.keys)); },
      t1_opt);
  h.add_case(
      "snr_mod_batch_t2",
      [&] { bench::do_not_optimize(batch2.snr_modulator_db(setup.keys)); },
      t2_opt);
  h.add_case(
      "snr_mod_batch_tmax",
      [&] { bench::do_not_optimize(batchn.snr_modulator_db(setup.keys)); },
      tmax_opt);

  // Layer cases. Oscillation readings as the tuners take them: a tank
  // reading runs kSettle samples plus a kCountWindow-point measurement,
  // a fine-retune reading kGentleSettle plus kCountWindow.
  using Tuner = calib::OscillationTuner;
  const std::vector<double> osc_zeros(Tuner::kSettle + Tuner::kCountWindow,
                                      0.0);
  const std::vector<double> gentle_zeros(
      Tuner::kGentleSettle + Tuner::kCountWindow, 0.0);
  const auto osc_chip_at = [&](std::uint32_t q_enh) {
    rf::ReceiverConfig cfg;
    cfg.modulator = calib::oscillation_mode_config(9, 128, q_enh);
    rf::ReceiverBatch chip(standard, setup.pv, setup.chip_rng);
    chip.configure({&cfg, 1});
    return chip;
  };
  rf::ReceiverBatch osc_chip = osc_chip_at(63);
  rf::ReceiverBatch q25_chip = osc_chip_at(25);
  rf::ReceiverBatch gentle_chip = osc_chip_at(29);
  // The screens' spectra: Hann-windowed 8192-point real periodograms of
  // the lanes' signals, each one real FFT plus the window and |X|^2.
  constexpr std::size_t kFftPoints = 8192;
  constexpr std::size_t kFftSweeps = 4;
  std::vector<double> fft_in(lanes * kFftPoints);
  sim::Rng fft_rng(bench::kBenchSeed);
  for (double& v : fft_in) v = fft_rng.uniform(-1.0, 1.0);
  par::ThreadPool pool4(4);
  for (par::ThreadPool* pool : {&pool1, &pool2, &pool4}) {
    const std::size_t t = pool->size();
    bench::CaseOptions osc_opt;
    osc_opt.notes = {{"lanes", 1.0}, {"threads", static_cast<double>(t)}};
    h.add_case(
        "osc_reading_t" + std::to_string(t),
        [&, pool] {
          bench::do_not_optimize(
              osc_chip.capture_modulator(osc_zeros, Tuner::kSettle, *pool));
        },
        osc_opt);
    h.add_case(
        "osc_reading_q25_t" + std::to_string(t),
        [&, pool] {
          bench::do_not_optimize(
              q25_chip.capture_modulator(osc_zeros, Tuner::kSettle, *pool));
        },
        osc_opt);
    h.add_case(
        "osc_reading_gentle_t" + std::to_string(t),
        [&, pool] {
          bench::do_not_optimize(gentle_chip.capture_modulator(
              gentle_zeros, Tuner::kGentleSettle, *pool));
        },
        osc_opt);
    bench::CaseOptions fft_opt;
    fft_opt.ops_per_rep = lanes_d * kFftSweeps;
    fft_opt.notes = {{"lanes", lanes_d}, {"threads", static_cast<double>(t)}};
    h.add_case(
        "fft_real_8192_t" + std::to_string(t),
        [&, pool] {
          for (std::size_t sweep = 0; sweep < kFftSweeps; ++sweep) {
            bench::do_not_optimize(dsp::Periodogram::many_real(
                fft_in, lanes, standard.fs_hz(), dsp::WindowKind::kHann,
                *pool));
          }
        },
        fft_opt);
  }
  return h.run();
}
