// Structure-of-arrays batch stepper: advances N receiver configurations
// (key candidates) in lockstep through one transient. It is the only
// measurement pipeline: lock::BatchEvaluator runs every oracle reading
// through it, a per-key reading being a batch of one, and the
// calibration tuners drive a one-lane batch as the chip on the bench.
//
// Bit-exactness contract: lane l of the k-th capture equals — to the
// last bit — what a scalar chip built from the same `rng` and taken
// through the same sequence (configure with lane l's config, reset,
// capture) would produce at its k-th capture: a chip that steps one
// sample at a time, block by block, each block drawing its own noise.
// tests/reference_receiver.h is that chip, and the parity tests hold the
// batch to it. Five properties make the contract hold:
//
//   1. `sim::Rng::fork` is const and depends only on the parent's seed
//      material, so every scalar chip built from the same RNG starts
//      identical noise streams regardless of the key. The batch forks
//      each named stream (VGLNA, Gmin, tanks, preamp, comparator, DAC,
//      buffer) once, at construction, draws it once for all lanes as raw
//      unit deviates, and scales per lane by that lane's configured RMS
//      as `0.0 + rms * g`, the value `sim::Rng::gaussian(0.0, rms)` takes.
//      Deviate i of a stream is thus a function of the RNG, the stream
//      and i alone, and the first deviates of a chip's streams can be
//      drawn once for many captures: a NoisePrefix holds them.
//   2. A chip's reset clears block state but not the noise sources, so
//      the scalar chip's k-th capture continues its streams where capture
//      k-1 stopped. The batch keeps the stream states (Box–Muller cache
//      included) between captures in the same way, while lane state
//      starts from zero on every capture. A capture read from a
//      NoisePrefix starts every stream at sample 0, as a fresh chip's
//      first capture does, and leaves the batch's own streams untouched,
//      so it must be the batch's last: the next capture asserts.
//      lock::BatchEvaluator builds a fresh batch for every reading, so
//      each of its captures is a first capture.
//   3. Every per-lane constant (gains, DAC levels, pole parameters,
//      noise RMS values) comes from `rf::lane_constants`, the one
//      config->parameter map, which the scalar reference also calls: the
//      two agree on the constants by construction.
//   4. The per-sample arithmetic is the same inline kernels the scalar
//      reference calls (`Vglna::Stage::process`, `cubic_soft`,
//      `Resonator::advance`, `soft_rail`), applied in the same order.
//   5. A lane steps only the blocks that reach its output. Its kind is
//      fixed at configure time from its mode bits, and each kind has its
//      own compiled pass-2 kernel:
//        - fixed (`test_mux == 3`): the mux drives a constant 0.0 into
//          the buffer, so the kernel steps the buffer and, in a receiver
//          capture, the backend. It runs no pass 1, no resonator and no
//          quantiser.
//        - r1-only (loop open, `test_mux == 1`): resonator 1 on the loop
//          signal, then the buffer and backend.
//        - no-quantiser (loop open, `test_mux == 2`): both resonators and
//          the preamp. There is no comparator and no DAC or delay-line
//          write.
//        - full: every other lane, every block.
//      An open loop never reads the delay line, so its feedback is the
//      constant 0.0. The blocks a kind drops then feed only state that
//      nothing on the way to its output reads. The kept values take the
//      same expressions in the same order as in the full kernel, so a
//      pruned lane's output keeps every bit. Pass 1 still runs for a
//      shared front end whose first lane is fixed: the next lane of that
//      id that needs it computes it.
//
// Streams are drawn, and some are also read. The scalar chip's Gmin
// transconductor and output buffer draw noise only while enabled (the
// VGLNA draws on every sample, used or not); the batch draws those two
// streams when any lane enables them. A capture whose lanes disagree on
// `gmin_enable` or `buffer_in_path` is still exact, but it advances the
// streams differently from some lanes' scalar chips, so it must be the
// batch's last: the next capture asserts. A drawn stream is read when
// some lane's outputs depend on its deviates: the VGLNA's only with Gmin
// on (pass 1 below), the DAC's only with the loop closed (the delay line
// is read only then), the comparator's with the loop closed or with
// `test_mux == 0` (otherwise the slicer decision feeds nothing). An
// oscillation-mode reading (Gmin off, loop open, `test_mux == 2`) thus
// reads 4 of its 7 drawn streams. An unread stream is advanced with
// `sim::Rng::skip_gaussians`, which leaves its generator, Box–Muller
// cache included, exactly where the deviates would, without computing
// them; the values it is read from reach no output.
//
// The transient streams through noise slots. A capture that fits in
// one kNoiseWindow draws its noise whole, then advances the lanes
// through it. A longer one streams through two slots of kNoiseWindow / 2
// samples per read stream, one fork-join per slot: each worker first
// advances its own contiguous range of lanes through slot w, then claims
// pieces of slot w + 1's noise from one shared index until none are
// left; a worker with no lanes claims pieces at once. The lane ranges
// split the lanes' summed kernel weights (`lane_weight`) as evenly as
// whole lanes allow. When every lane has one weight, worker w of c gets
// lanes [w * lanes / c, (w + 1) * lanes / c), the partition of a
// `parallel_for` over the lanes. So a one-lane oscillation
// reading draws its next slot on the workers its lane leaves idle, and
// a 32-lane batch draws it in the workers' tails. A piece is about 4096
// deviates of one read stream: it copies the stream's generator as it
// stood at the start of the slot, passes over the deviates before its
// own with `sim::Rng::skip_gaussians`, and transforms its range; the
// piece that ends the slot hands the generator back, Box–Muller cache
// included. An unread stream's skip is one piece. Every deviate is thus
// the same transform of the same generator words as in one
// uninterrupted pass, and lane state persists from slot to slot, so the
// results are independent of the thread count, the slot length and the
// piece cut by construction. Noise memory is O(kNoiseWindow), not
// O(transient). The slots are sized on the calling thread and kept
// across captures. Only a read stream has slots of its own; every unread
// stream reads the preamp's, which every capture reads, so an
// oscillation reading sizes 4 streams' slots, not 7.
//
// A batch built with a NoisePrefix reads a capture of at most
// `NoisePrefix::length()` samples as one window straight from the
// prefix: it draws no deviate and sizes no window of its own. The prefix
// draws a stream, in pieces on every worker, on the first capture that
// reads it, and only the read streams. lock::LockEvaluator keeps one per
// chip, so the single-window readings of its calibration sweeps and
// screens draw their noise once.
//
// Inside a slot each worker steps its lanes chunk by chunk (4096
// samples), and within a chunk front end by front end. The stateless
// VGLNA/transconductor front end ("pass 1") turns the stimulus and the
// shared VGLNA and Gmin noise into the loop signal, stage-major over the
// chunk; the stateful loop and digital backend ("pass 2") then consume
// it lane by lane. `configure` gives two lanes one front-end id when
// their `LaneConstants::FrontEnd` (VGLNA stage and noise RMS,
// transconductor gain, IIP3 amplitude and noise RMS) is bitwise equal;
// every Gmin-off lane shares one id, whose loop signal is zero. Equal
// constants through the same expressions give equal bits, so a worker
// runs pass 1 once per id and chunk for all of that id's lanes. Near-key
// batches share most front ends: only the VGLNA gain and Gmin bias
// fields feed one.
//
// Every capture charges its work counters on the calling thread:
// `rf.batch.lane_samples`, `rf.batch.noise_samples` (deviates drawn,
// a prefix's included), `rf.batch.noise_skipped` (those of them skipped,
// not transformed), `rf.batch.noise_overlapped` (those of them drawn in
// the fork-join of a lane pass, behind it: every slot's but the first),
// `rf.batch.noise_cached` (deviates read from a prefix: n per read
// stream of a capture it serves), `rf.batch.reduced_lane_samples` (the
// lane-samples stepped by a kernel other than the full one, property 5),
// `rf.batch.signature_groups`, the number of distinct (gmin_enable,
// feedback_enable, comp_clock_enable, test_mux, buffer_in_path) control
// signatures among the lanes, and `rf.batch.front_ends`, the number of
// distinct front-end ids among them.
#pragma once

#include <array>
#include <complex>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "par/thread_pool.h"
#include "rf/digital_backend.h"
#include "rf/lane_constants.h"
#include "rf/receiver.h"
#include "sim/rng.h"

namespace analock::rf {

class ReceiverBatch {
 public:
  class NoisePrefix;

  /// Forks the chip's noise streams from `rng` and configures the lanes
  /// (see configure). With a `prefix` (not owned; it must outlive the
  /// batch and come from the same `rng`), a capture that fits in it reads
  /// its noise from there instead of drawing it.
  ReceiverBatch(const Standard& standard,
                const sim::ProcessVariation& process, const sim::Rng& rng,
                std::span<const ReceiverConfig> configs,
                NoisePrefix* prefix = nullptr);

  /// One lane at the default configuration, like a freshly built chip:
  /// the chip the calibration tuners reconfigure capture by capture.
  ReceiverBatch(const Standard& standard,
                const sim::ProcessVariation& process, const sim::Rng& rng)
      : ReceiverBatch(standard, process, rng,
                      std::array<ReceiverConfig, 1>{}) {}

  /// Rebuilds lane state for `configs` (one lane each) from
  /// `rf::lane_constants`; the noise streams carry on. All configs must
  /// share `digital_mode`.
  void configure(std::span<const ReceiverConfig> configs);

  [[nodiscard]] std::size_t lanes() const { return lanes_; }
  [[nodiscard]] double fs_hz() const { return fs_hz_; }
  /// Decimated baseband rate of capture_receiver outputs.
  [[nodiscard]] double baseband_fs_hz() const {
    return fs_hz_ / static_cast<double>(DigitalBackend::kTotalDecimation);
  }

  /// Samples of noise a read stream holds: 1 MiB of deviates across the
  /// eight streams. A capture that fits (an 8192-point modulator
  /// capture) draws it whole in one fork-join and steps its lanes in a
  /// second. A longer one streams through two slots of half this length
  /// at one fork-join per slot, plus one for the first slot's draw: 18
  /// for a receiver transient (~134k samples), 4 for a 16384-point SFDR
  /// capture. Smaller slots would cost more pool barriers, which 32-lane
  /// receiver batches feel.
  static constexpr std::size_t kNoiseWindow = 16384;

  /// Batched reset and modulator capture: drives every lane with `rf`
  /// and returns the post-settle modulator outputs,
  /// lane-major — lane l occupies [l*(rf.size()-settle),
  /// (l+1)*(rf.size()-settle)).
  [[nodiscard]] std::vector<double> capture_modulator(
      std::span<const double> rf, std::size_t settle, par::ThreadPool& pool);

  /// Batched reset and receiver capture, limited to the baseband
  /// product: exactly `baseband_points` complex samples per
  /// lane, lane-major, after dropping `settle_baseband` leading baseband
  /// outputs.
  /// `rf.size()` must cover receiver_input_length(baseband_points,
  /// settle, settle_baseband).
  [[nodiscard]] std::vector<std::complex<double>> capture_receiver(
      std::span<const double> rf, std::size_t settle,
      std::size_t baseband_points, std::size_t settle_baseband,
      par::ThreadPool& pool);

 private:
  struct LaneState;

  /// The pass-2 kernel a lane runs: the blocks that reach its output
  /// (property 5 in the header comment).
  enum class LaneKind : std::uint8_t { kFull, kNoQuantiser, kR1Only, kFixed };

  /// A lane's share of a worker's lane pass: its kernel's cost per
  /// lane-sample on random keys, whose tanks mostly run past the limiter
  /// knee, in units of about 4 ns (1 thread, modulator captures). A fixed
  /// lane costs about 2 ns, an r1-only lane 36, a no-quantiser lane 53
  /// and a full one 85.
  static constexpr std::size_t lane_weight(LaneKind kind) {
    switch (kind) {
      case LaneKind::kFixed:
        return 1;
      case LaneKind::kR1Only:
        return 9;
      case LaneKind::kNoQuantiser:
        return 13;
      default:
        return 21;
    }
  }

  /// The chip's named noise streams. Each keeps its generator from
  /// capture to capture and, when read, holds the slots of raw unit
  /// deviates it drew for the current stretch of the transient.
  struct NoiseStreams {
    enum Id : std::size_t {
      kVg, kGm, kPre, kCmp, kDac, kBuf, kT1, kT2, kCount
    };
    struct Stream {
      sim::Rng rng;
      bool drawn = true;  ///< the lanes' scalar chips draw it this capture
      bool read = true;   ///< some lane's output depends on its deviates
      std::vector<double> window;
    };
    std::array<Stream, kCount> streams;

    /// The streams a draw advances, `count` of them: the first
    /// `transformed` have their deviates written to their windows, the
    /// rest are skipped.
    std::array<Id, kCount> order{};
    std::size_t transformed = 0;
    std::size_t count = 0;
  };

  /// One fork-join's share of noise: a stretch of every stream in a
  /// NoiseStreams' `order`, cut into pieces the workers claim (see the
  /// header comment).
  class NoiseDraw;

  /// Forks the chip's named noise streams from `rng`, their windows
  /// still empty.
  [[nodiscard]] static NoiseStreams make_noise(const sim::Rng& rng);

  /// Checks the stream-continuation precondition, points `windows_` at
  /// the prefix (filling what it lacks) when an `n`-sample transient fits
  /// in it, else at the own windows, sized for it, and charges the
  /// capture's work counters. Returns whether the prefix serves it.
  bool begin_capture(std::size_t n, par::ThreadPool& pool);

  /// The window loop both captures share: draws the transient's noise
  /// slot by slot, each behind the lane pass of the one before, and
  /// advances every lane through it (see run_lanes for the outputs).
  void capture(std::span<const double> rf, std::size_t settle,
               bool run_backend, std::size_t baseband_points,
               std::size_t settle_baseband, std::span<double> mod_out,
               std::span<std::complex<double>> bb_out,
               par::ThreadPool& pool);

  /// The first lane of worker w's range when `chunks` workers split the
  /// lanes by weight (see the header comment): the largest l whose lanes
  /// [0, l) weigh at most w / chunks of the total.
  [[nodiscard]] std::size_t lane_split(std::size_t w,
                                       std::size_t chunks) const;

  /// Advances lanes [begin, end) through samples [offset, offset +
  /// window) of the transient, chunk by chunk and, within a chunk, grouped
  /// by front-end id, resuming from and saving back `state[l]`.
  /// The noise windows hold those samples' deviates from index
  /// `noise_at`. Without `kBackend`, writes post-settle modulator outputs
  /// into `mod_out` (lane-major, n - settle per lane); with it, runs the
  /// digital backend and writes `baseband_points` baseband samples per
  /// lane into `bb_out`. The mode and each lane's kind are compile-time
  /// parameters of the sample loop: a runtime flag measurably slows it.
  template <bool kBackend>
  void run_lanes(std::size_t begin, std::size_t end,
                 std::span<const double> rf, std::size_t offset,
                 std::size_t window, std::size_t noise_at,
                 std::size_t settle, std::size_t baseband_points,
                 std::size_t settle_baseband, std::span<LaneState> state,
                 std::span<double> mod_out,
                 std::span<std::complex<double>> bb_out) const;

  const Standard* standard_;
  sim::ProcessVariation process_;
  NoiseStreams noise_;
  NoisePrefix* prefix_;
  /// The window each stream is read from in the current capture: a
  /// stream no lane reads, drawn or not, reads the preamp's.
  std::array<const double*, NoiseStreams::kCount> windows_{};
  double fs_hz_;
  std::size_t lanes_ = 0;
  std::uint32_t digital_mode_ = 0;

  /// Per-lane constants (rf::lane_constants of each lane's config).
  std::vector<LaneConstants> constants_;
  /// Per-lane kernel, the lanes' summed lane_weight, and how many lanes
  /// run a kernel other than the full one.
  std::vector<LaneKind> kind_;
  std::size_t total_weight_ = 0;
  std::size_t reduced_lanes_ = 0;
  /// Distinct control signatures among the lanes (see the header).
  std::uint64_t signature_groups_ = 0;
  /// Per-lane front-end id, numbered in first-lane order, and the number
  /// of distinct front ends (see the header).
  std::vector<std::size_t> fe_id_;
  std::size_t front_ends_ = 0;
  /// Lanes agree on gmin_enable and buffer_in_path, so a capture leaves
  /// every lane's streams where its scalar chip would leave them.
  bool lanes_agree_ = true;
  /// No earlier capture broke the stream continuation (see the header).
  bool resumable_ = true;

  // Shared digital-chain taps (mode is uniform across lanes).
  std::vector<double> hb_taps_;
  std::vector<double> channel_taps_;
};

/// The first `length()` deviates of every noise stream of a chip: the
/// streams a ReceiverBatch built from the same RNG forks. A stream is
/// drawn, on the calling thread's pool, the first time a capture served
/// from the prefix reads it; later captures read it as it is. Not
/// thread-safe: one caller at a time, like the evaluator that owns it.
class ReceiverBatch::NoisePrefix {
 public:
  /// Forks the streams; draws nothing yet. `length` is at most
  /// kNoiseWindow.
  NoisePrefix(const sim::Rng& rng, std::size_t length);

  [[nodiscard]] std::size_t length() const { return length_; }

 private:
  friend class ReceiverBatch;

  /// Draws deviates [0, length) of every stream in `streams` (bit s for
  /// stream s) not drawn yet, in pieces on every worker, and charges them
  /// to `rf.batch.noise_samples`.
  void draw_streams(unsigned streams, par::ThreadPool& pool);

  NoiseStreams noise_;
  std::size_t length_;
  unsigned filled_ = 0;  ///< bit s: stream s holds its deviates
};

}  // namespace analock::rf
