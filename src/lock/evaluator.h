// Lock-efficiency evaluator: applies a key to a (behavioral) chip and
// measures the paper's performance metrics — SNR at the modulator output
// (Fig. 7), SNR at the receiver output (Fig. 9), two-tone SFDR (Fig. 12)
// — against the standard's specification. Locking succeeds when at least
// one performance violates its specification (Section VI.A).
//
// The evaluator owns the chip, the options and the books (trial counts,
// fault campaign); it does not own a measurement pipeline. Every
// per-key reading is a batch of one through lock::BatchEvaluator and
// rf::ReceiverBatch, the same path population callers take.
//
// Every evaluation is deterministic for a given (chip, key, options):
// every reading starts the chip's noise streams from sample 0, so
// calibration searches and tests see a stable objective. The evaluator
// builds the key-independent inputs of its readings once and reuses them
// bit for bit: the first noise window of the chip's streams (an
// rf::ReceiverBatch::NoisePrefix, which every reading whose transient
// fits in it reads instead of drawing), and the test tone and two-tone
// it last built. It is not thread-safe: one caller at a time. The
// evaluator also counts trials, which the attack cost model converts
// into projected silicon/simulation time.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "fault/fault_injector.h"
#include "lock/key64.h"
#include "lock/key_layout.h"
#include "rf/receiver.h"
#include "rf/receiver_batch.h"
#include "rf/standards.h"
#include "sim/process.h"
#include "sim/rng.h"

namespace analock::lock {

struct EvaluatorOptions {
  double input_dbm = -25.0;      ///< paper's reference input power
  std::size_t fft_size = 8192;   ///< modulator capture length (paper)
  std::size_t sfdr_fft_size = 16384;  ///< finer grid for two-tone products
  std::size_t baseband_points = 2048;  ///< receiver-output capture length
  std::size_t settle = 2048;     ///< analog settle (input samples)
  double two_tone_spacing_hz = 10.0e6;  ///< paper's SFDR tone spacing
  /// Per-tone power for the SFDR reference check: 5 dB below the SNR
  /// reference so the two-tone peak envelope matches the single-tone
  /// drive level (the paper leaves the SFDR stimulus power unspecified).
  double two_tone_dbm = -30.0;
};

/// One full performance characterization of a key on a chip.
struct PerformanceReport {
  double snr_modulator_db = -200.0;
  double snr_receiver_db = -200.0;
  double sfdr_db = -200.0;
  bool snr_ok = false;
  bool sfdr_ok = false;

  /// Paper criterion: the circuit is unlocked only if every measured
  /// performance meets its specification.
  [[nodiscard]] bool unlocked() const { return snr_ok && sfdr_ok; }
};

class LockEvaluator {
 public:
  LockEvaluator(const rf::Standard& standard,
                const sim::ProcessVariation& process, const sim::Rng& rng,
                EvaluatorOptions options = {});

  [[nodiscard]] const rf::Standard& standard() const { return *standard_; }
  [[nodiscard]] const EvaluatorOptions& options() const { return options_; }
  [[nodiscard]] const sim::ProcessVariation& process() const {
    return process_;
  }

  /// SNR (dB) at the BP sigma-delta output for a single in-band tone at
  /// `input_dbm` (default: options().input_dbm). Fig. 7 measurement.
  double snr_modulator_db(const Key64& key);
  double snr_modulator_db(const Key64& key, double input_dbm);

  /// SNR (dB) at the RF-receiver (decimated baseband) output. Fig. 9.
  double snr_receiver_db(const Key64& key);
  double snr_receiver_db(const Key64& key, double input_dbm);

  /// Two-tone SFDR (dB) at the modulator output. Fig. 12.
  double sfdr_db(const Key64& key);
  double sfdr_db(const Key64& key, double dbm_per_tone);

  /// Full report: SNR at both outputs plus SFDR, checked against the
  /// standard's PerformanceSpec.
  PerformanceReport evaluate(const Key64& key);

  /// Cheap screen used by attacks: receiver-output SNR against spec only.
  bool unlocks(const Key64& key);

  /// The oracle's three measurements.
  enum class Metric { kSnrModulator, kSnrReceiver, kSfdr };

  /// Per-metric measurement counts. The aggregate trials() below is
  /// always the sum of these, so the legacy total and the per-metric
  /// breakdown cannot disagree.
  struct TrialCounts {
    std::uint64_t snr_modulator = 0;
    std::uint64_t snr_receiver = 0;
    std::uint64_t sfdr = 0;
    [[nodiscard]] std::uint64_t total() const {
      return snr_modulator + snr_receiver + sfdr;
    }
  };

  [[nodiscard]] const TrialCounts& trial_counts() const { return trials_; }

  /// Number of single-metric measurements performed so far (attack cost
  /// accounting: the paper charges ~20 simulated minutes per SNR point).
  /// Legacy aggregate: delegates to the per-metric counters.
  [[nodiscard]] std::uint64_t trials() const { return trials_.total(); }
  void reset_trials() { trials_ = {}; }

  /// Attaches a fault campaign (not owned; nullptr detaches). An active
  /// injector perturbs every oracle reading (noise spikes / transient
  /// dropouts) and applies stuck-at bits to the fabric word before it is
  /// programmed. With no injector — or an inactive plan — every
  /// measurement is bit-exact with the fault layer absent.
  void set_fault_injector(fault::FaultInjector* injector) {
    injector_ = injector;
  }
  [[nodiscard]] fault::FaultInjector* fault_injector() const {
    return injector_;
  }

  /// Stream every receiver this evaluator measures is seeded from.
  [[nodiscard]] const sim::Rng& rng() const { return rng_; }

  /// Configuration the chip runs for `key`: the campaign's stuck-at bits
  /// corrupt the word between the key source and the fabric. Pure (no
  /// fault is counted), so clean readings can be taken in any order.
  [[nodiscard]] rf::ReceiverConfig applied_config(const Key64& key) const;

  /// Books one `metric` measurement of `key` whose clean reading is
  /// `clean_db`, and returns the reading the oracle reports. It counts the
  /// trial, counts a stuck word, and routes the reading through the
  /// injector, whose draws do not depend on the reading. Every
  /// measurement, per key or batched, passes through here once; calling
  /// it in per-key measurement order keeps trial counts and the
  /// injector's stream identical to one per-key call per reading.
  double charge(Metric metric, const Key64& key, double clean_db);

  /// Noise of a reading whose transient runs `n` samples: the chip's
  /// prefix when it fits in the prefix, which holds the longest transient
  /// of these options that fits in one noise window; nullptr otherwise.
  /// A longer reading releases the prefix first, so its own noise windows
  /// never sit next to it; the next reading that fits draws it again.
  [[nodiscard]] rf::ReceiverBatch::NoisePrefix* noise_prefix(std::size_t n);

  /// The test tone (rf::make_test_tone at the default offset) or the
  /// two-tone (rf::make_two_tone at options().two_tone_spacing_hz) of
  /// `n` samples at `dbm` per tone. Each is rebuilt only when the power
  /// or length differs from the last one of its kind, and of the two
  /// kept at most one is longer than a noise window. The reference stays
  /// valid until the next call.
  [[nodiscard]] const std::vector<double>& test_tone(double dbm,
                                                     std::size_t n);
  [[nodiscard]] const std::vector<double>& two_tone(double dbm_per_tone,
                                                    std::size_t n);

 private:
  /// A stimulus and the power it was built at; its length is its size.
  struct Stimulus {
    double dbm = 0.0;
    std::vector<double> samples;
  };

  const rf::Standard* standard_;
  sim::ProcessVariation process_;
  sim::Rng rng_;
  EvaluatorOptions options_;
  TrialCounts trials_;
  fault::FaultInjector* injector_ = nullptr;
  std::size_t prefix_length_;
  std::unique_ptr<rf::ReceiverBatch::NoisePrefix> noise_prefix_;
  Stimulus tone_;
  Stimulus two_tone_;
};

}  // namespace analock::lock
