#include "rf/receiver_batch.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstring>
#include <optional>
#include <type_traits>

#include "dsp/fir.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace analock::rf {

namespace {

constexpr std::size_t kDelayDepth = FractionalDelayLine::kDepth;
constexpr std::size_t kHbTaps = 23;
constexpr std::size_t kChannelTaps = 31;

}  // namespace

/// Dynamic state of one lane, carried from chunk to chunk. Every
/// capture starts from a freshly reset receiver's state: all zeros with
/// the slicer low.
struct ReceiverBatch::LaneState {
  // Loop filter: resonators, the one-sample input history, delay ring.
  double r1s1 = 0.0, r1s2 = 0.0, r2s1 = 0.0, r2s2 = 0.0;
  double u1 = 0.0, s11 = 0.0;
  double u_hist = 0.0, s1_hist = 0.0;
  double dbuf[kDelayDepth] = {};
  std::size_t dpos = 0;

  // Digital backend: slicer, mixer, CIC, two half-bands, channel FIR.
  double slicer = -1.0;
  unsigned mix_phase = 0;
  std::size_t cic_phase = 0;
  double ci_re[DigitalBackend::kCicStages] = {};
  double ci_im[DigitalBackend::kCicStages] = {};
  double cb_re[DigitalBackend::kCicStages] = {};
  double cb_im[DigitalBackend::kCicStages] = {};
  double h1_re[kHbTaps] = {}, h1_im[kHbTaps] = {};
  double h2_re[kHbTaps] = {}, h2_im[kHbTaps] = {};
  std::size_t h1_next = 0, h1_count = 0, h1_phase = 0;
  std::size_t h2_next = 0, h2_count = 0, h2_phase = 0;
  double ch_re[kChannelTaps] = {}, ch_im[kChannelTaps] = {};
  std::size_t ch_pos = 0;
  std::size_t produced = 0;
  bool done = false;
};

/// One fork-join's share of noise: deviates [0, length) of a stretch of
/// every stream in `noise.order`, written to the transformed streams'
/// windows from index `at`. A transformed stream is cut into pieces of
/// about kPiece deviates, an unread stream's skip is one piece, and the
/// workers claim pieces from one shared index. Built on the calling
/// thread before the fork-join; the streams' generators must not move
/// until it ends.
class ReceiverBatch::NoiseDraw {
 public:
  static constexpr std::size_t kPiece = 4096;

  NoiseDraw(NoiseStreams& noise, std::size_t at, std::size_t length)
      : noise_(&noise),
        length_(length),
        parts_(std::max<std::size_t>(1, (length + kPiece - 1) / kPiece)),
        pieces_(length == 0 ? 0
                            : noise.transformed * parts_ + noise.count -
                                  noise.transformed) {
    for (std::size_t k = 0; k < noise.count; ++k) {
      NoiseStreams::Stream& stream = noise.streams[noise.order[k]];
      start_[k] = stream.rng;
      out_[k] = k < noise.transformed ? stream.window.data() + at : nullptr;
    }
  }

  [[nodiscard]] std::size_t piece_count() const { return pieces_; }

  /// Draws unclaimed pieces until none is left.
  void claim_pieces();

 private:
  void draw_piece(std::size_t piece) const;

  NoiseStreams* noise_;
  std::size_t length_;
  std::size_t parts_;   ///< pieces per transformed stream
  std::size_t pieces_;
  /// Per `order` entry: the stream's generator before the draw, and
  /// where its deviates go (nullptr for a skipped stream).
  std::array<sim::Rng, NoiseStreams::kCount> start_;
  std::array<double*, NoiseStreams::kCount> out_{};
  std::atomic<std::size_t> next_{0};
};

// analock: thread_safe -- pieces write disjoint ranges and streams
void ReceiverBatch::NoiseDraw::claim_pieces() {
  for (std::size_t piece = next_.fetch_add(1, std::memory_order_relaxed);
       piece < pieces_;
       piece = next_.fetch_add(1, std::memory_order_relaxed)) {
    draw_piece(piece);
  }
}

// analock: thread_safe -- writes only its piece's range and, when it
// ends its stream, that stream's generator
void ReceiverBatch::NoiseDraw::draw_piece(std::size_t piece) const {
  // Every piece advances its own copy of its stream's starting generator;
  // only the piece that ends the stretch writes the stream's back.
  const std::size_t transformed_pieces = noise_->transformed * parts_;
  if (piece >= transformed_pieces) {
    const std::size_t k = noise_->transformed + piece - transformed_pieces;
    sim::Rng rng = start_[k];
    rng.skip_gaussians(length_);
    noise_->streams[noise_->order[k]].rng = rng;
    return;
  }
  const std::size_t k = piece / parts_;
  const std::size_t part = piece % parts_;
  const std::size_t from = part * length_ / parts_;
  const std::size_t to = (part + 1) * length_ / parts_;
  sim::Rng rng = start_[k];
  rng.skip_gaussians(from);
  double* out = out_[k];
  for (std::size_t i = from; i < to; ++i) out[i] = rng.gaussian();
  if (to == length_) noise_->streams[noise_->order[k]].rng = rng;
}

ReceiverBatch::ReceiverBatch(const Standard& standard,
                             const sim::ProcessVariation& process,
                             const sim::Rng& rng,
                             std::span<const ReceiverConfig> configs,
                             NoisePrefix* prefix)
    : standard_(&standard),
      process_(process),
      noise_(make_noise(rng)),
      prefix_(prefix),
      fs_hz_(standard.fs_hz()),
      hb_taps_(dsp::design_halfband(kHbTaps)) {
  configure(configs);
}

void ReceiverBatch::configure(std::span<const ReceiverConfig> configs) {
  lanes_ = configs.size();
  assert(lanes_ > 0 && "batch needs at least one lane");
  digital_mode_ = configs[0].digital_mode;

  constants_.resize(lanes_);
  kind_.resize(lanes_);
  total_weight_ = 0;
  reduced_lanes_ = 0;
  bool any_gmin = false;
  bool any_buffer = false;
  bool any_feedback = false;
  bool any_mux0 = false;
  bool all_gmin = true;
  bool all_buffer = true;
  std::uint64_t signatures = 0;  // one bit per control signature
  for (std::size_t l = 0; l < lanes_; ++l) {
    assert(configs[l].digital_mode == digital_mode_ &&
           "batch lanes must share the digital mode");
    constants_[l] = lane_constants(*standard_, process_, configs[l]);
    const LaneConstants& k = constants_[l];
    any_gmin = any_gmin || k.gmin_enable;
    any_buffer = any_buffer || k.buffer_in_path;
    any_feedback = any_feedback || k.feedback_enable;
    any_mux0 = any_mux0 || k.test_mux == 0;
    all_gmin = all_gmin && k.gmin_enable;
    all_buffer = all_buffer && k.buffer_in_path;
    const unsigned signature =
        unsigned{k.gmin_enable} | unsigned{k.feedback_enable} << 1 |
        unsigned{k.comp_clock_enable} << 2 | unsigned{k.test_mux} << 3 |
        unsigned{k.buffer_in_path} << 5;
    signatures |= std::uint64_t{1} << signature;
    // The blocks that reach the output (property 5): the mux's constant
    // tap reads nothing upstream, and an open loop reads no delay line.
    LaneKind kind = LaneKind::kFull;
    if (k.test_mux == 3) {
      kind = LaneKind::kFixed;
    } else if (!k.feedback_enable && k.test_mux == 1) {
      kind = LaneKind::kR1Only;
    } else if (!k.feedback_enable && k.test_mux == 2) {
      kind = LaneKind::kNoQuantiser;
    }
    kind_[l] = kind;
    total_weight_ += lane_weight(kind);
    if (kind != LaneKind::kFull) ++reduced_lanes_;
  }
  signature_groups_ = static_cast<std::uint64_t>(std::popcount(signatures));
  lanes_agree_ = any_gmin == all_gmin && any_buffer == all_buffer;

  // Front-end ids, numbered in first-lane order: lanes whose front-end
  // constants are bitwise equal compute the same loop signal, and all
  // Gmin-off lanes share the all-zero one.
  static_assert(sizeof(LaneConstants::FrontEnd) == 8 * sizeof(double),
                "the front end must be padding-free doubles");
  const auto same_front_end = [&](std::size_t a, std::size_t b) {
    const LaneConstants& ka = constants_[a];
    const LaneConstants& kb = constants_[b];
    if (!ka.gmin_enable || !kb.gmin_enable) {
      return ka.gmin_enable == kb.gmin_enable;
    }
    return std::memcmp(&ka.front_end, &kb.front_end,
                       sizeof(LaneConstants::FrontEnd)) == 0;
  };
  fe_id_.resize(lanes_);
  front_ends_ = 0;
  for (std::size_t l = 0; l < lanes_; ++l) {
    fe_id_[l] = front_ends_;
    for (std::size_t j = 0; j < l; ++j) {
      if (same_front_end(j, l)) {
        fe_id_[l] = fe_id_[j];
        break;
      }
    }
    if (fe_id_[l] == front_ends_) ++front_ends_;
  }
  // The VGLNA stream stays drawn without Gmin: the scalar VGLNA draws
  // on every sample. Lanes read it only in pass 1 (Gmin on), the DAC's
  // only through a closed loop's delay line, and the comparator's
  // through a closed loop or the mux-0 output.
  auto& streams = noise_.streams;
  streams[NoiseStreams::kGm].drawn = any_gmin;
  streams[NoiseStreams::kBuf].drawn = any_buffer;
  streams[NoiseStreams::kVg].read = any_gmin;
  streams[NoiseStreams::kDac].read = any_feedback;
  streams[NoiseStreams::kCmp].read = any_feedback || any_mux0;
  // Draw order: the read streams, whose deviates the lanes read, then
  // the drawn but unread ones, which are only skipped.
  noise_.count = 0;
  for (const bool read : {true, false}) {
    for (std::size_t s = 0; s < NoiseStreams::kCount; ++s) {
      if (streams[s].drawn && streams[s].read == read) {
        noise_.order[noise_.count++] = static_cast<NoiseStreams::Id>(s);
      }
    }
    if (read) noise_.transformed = noise_.count;
  }

  channel_taps_ = DigitalBackend::channel_taps_for_mode(digital_mode_);
}

ReceiverBatch::NoiseStreams ReceiverBatch::make_noise(const sim::Rng& rng) {
  // The chip's named noise streams: one fork chain per block (receiver
  // section, block, noise source), the chains the scalar chip's blocks
  // walk when they are built.
  const sim::Rng mod_rng = rng.fork("receiver-modulator");
  return {{{
      {rng.fork("receiver-vglna").fork("vglna-noise"), true, true, {}},
      {mod_rng.fork("sd-gmin").fork("gmin-noise"), true, true, {}},
      {mod_rng.fork("sd-preamp").fork("preamp-noise"), true, true, {}},
      {mod_rng.fork("sd-comparator").fork("comparator-noise"), true, true,
       {}},
      {mod_rng.fork("sd-dac").fork("dac-noise"), true, true, {}},
      {mod_rng.fork("sd-buffer").fork("buffer-noise"), true, true, {}},
      {mod_rng.fork("sd-tank1"), true, true, {}},
      {mod_rng.fork("sd-tank2"), true, true, {}},
  }}};
}

ReceiverBatch::NoisePrefix::NoisePrefix(const sim::Rng& rng,
                                        std::size_t length)
    : noise_(make_noise(rng)), length_(length) {
  assert(length <= kNoiseWindow && "a prefix holds one noise window");
}

void ReceiverBatch::NoisePrefix::draw_streams(unsigned streams,
                                              par::ThreadPool& pool) {
  const unsigned missing = streams & ~filled_;
  if (missing == 0) return;
  noise_.count = 0;
  for (std::size_t s = 0; s < NoiseStreams::kCount; ++s) {
    if ((missing >> s & 1u) == 0) continue;
    // Sized here, on the caller, like the batch's own windows.
    noise_.streams[s].window.resize(length_);
    noise_.order[noise_.count++] = static_cast<NoiseStreams::Id>(s);
  }
  noise_.transformed = noise_.count;
  ANALOCK_SPAN_QUIET("rf.batch.noise");
  NoiseDraw draw(noise_, 0, length_);
  pool.parallel_for(std::min(pool.size(), draw.piece_count()),
                    [&draw](std::size_t, std::size_t) {
    draw.claim_pieces();
  });
  filled_ |= missing;
  obs::count("rf.batch.noise_samples", noise_.count * length_);
}

bool ReceiverBatch::begin_capture(std::size_t n, par::ThreadPool& pool) {
  assert(resumable_ &&
         "an earlier capture mixed gmin_enable or buffer_in_path across "
         "lanes or read the noise prefix; its noise streams no longer "
         "follow every lane's chip");
  const bool from_prefix = prefix_ != nullptr && n <= prefix_->length();
  resumable_ = lanes_agree_ && !from_prefix;
  unsigned read = 0;
  std::uint64_t drawn = 0;
  std::uint64_t skipped = 0;
  for (std::size_t s = 0; s < NoiseStreams::kCount; ++s) {
    const NoiseStreams::Stream& stream = noise_.streams[s];
    if (!stream.drawn) continue;
    ++drawn;
    if (stream.read) {
      read |= 1u << s;
    } else {
      ++skipped;
    }
  }
  NoiseStreams* source = &noise_;
  if (from_prefix) {
    prefix_->draw_streams(read, pool);
    source = &prefix_->noise_;
  } else {
    // Sized here, on the caller: a window grown inside a pool worker
    // would land in that thread's malloc arena, which keeps the pages.
    const std::size_t window = std::min(kNoiseWindow, n);
    for (std::size_t s = 0; s < NoiseStreams::kCount; ++s) {
      std::vector<double>& own = noise_.streams[s].window;
      if ((read >> s & 1u) != 0 && own.size() < window) own.resize(window);
    }
  }
  // Unread streams read the preamp's window, which is always read.
  const double* unread = source->streams[NoiseStreams::kPre].window.data();
  for (std::size_t s = 0; s < NoiseStreams::kCount; ++s) {
    windows_[s] =
        (read >> s & 1u) != 0 ? source->streams[s].window.data() : unread;
  }
  const auto reads = static_cast<std::uint64_t>(std::popcount(read));
  obs::count("rf.batch.lane_samples", lanes_ * n);
  obs::count("rf.batch.reduced_lane_samples", reduced_lanes_ * n);
  if (from_prefix) {
    obs::count("rf.batch.noise_cached", reads * n);
  } else {
    obs::count("rf.batch.noise_samples", drawn * n);
    obs::count("rf.batch.noise_skipped", skipped * n);
  }
  obs::count("rf.batch.signature_groups", signature_groups_);
  obs::count("rf.batch.front_ends", front_ends_);
  return from_prefix;
}

// analock: thread_safe -- reads only what configure set
std::size_t ReceiverBatch::lane_split(std::size_t w,
                                      std::size_t chunks) const {
  // Weights are at least 1, so the prefix sums rise strictly; with one
  // weight c for every lane, chunks * c * l <= w * c * lanes picks
  // l = w * lanes / chunks.
  std::size_t l = 0;
  std::size_t weight = 0;
  while (l < lanes_ &&
         chunks * (weight + lane_weight(kind_[l])) <= w * total_weight_) {
    weight += lane_weight(kind_[l]);
    ++l;
  }
  return l;
}

// analock: thread_safe parallel_region
template <bool kBackend>
void ReceiverBatch::run_lanes(std::size_t begin, std::size_t end,
                              std::span<const double> rf, std::size_t offset,
                              std::size_t window, std::size_t noise_at,
                              std::size_t settle, std::size_t baseband_points,
                              std::size_t settle_baseband,
                              std::span<LaneState> state,
                              std::span<double> mod_out,
                              std::span<std::complex<double>> bb_out) const {
  // Chunk-outer, then lanes grouped by front end, then samples. Per
  // 4096-sample chunk each lane of [begin, end) resumes from `state[l]`
  // into an L1-resident local copy (resonators, delay ring, decimation
  // chain), with every per-lane constant hoisted into a register and
  // every flag-dependent branch loop-invariant, and saves back at chunk
  // exit. The shared cost (noise streams, stimulus, FFT plans) was paid
  // once by the caller; per lane only the arithmetic the scalar chain
  // would do remains, minus its ~8 RNG draws per sample.
  //
  // Each chunk runs in two passes. The VGLNA cascade and transconductor
  // have no state, so pass 1 evaluates them over the whole chunk stage by
  // stage: one sweep adds the input noise, one sweep runs per VGLNA
  // stage, one applies the transconductor. Each sweep's samples are
  // independent, so the core overlaps them instead of waiting out one
  // long dependency chain per sample. Pass 2 consumes the buffered loop
  // signal and advances the stateful chain. Every sample sees the same
  // expressions in the same order as in the scalar chain, so neither the
  // split nor the stage-major order changes a bit.
  //
  // Pass 1 reads only the stimulus and the VGLNA/Gmin noise windows,
  // which every lane shares, and the lane's front-end constants. Lanes
  // with one front-end id have bitwise-equal constants (see configure),
  // so the same expressions give them the same loop signal: pass 1 runs
  // once per id and chunk, and the id's lanes all read that buffer.
  //
  // Pass 2 runs one kernel per lane kind (property 5 in the header),
  // chosen per lane and chunk; within a kernel the kind is a constant.
  const std::size_t n = rf.size();
  const std::size_t n_mod = n > settle ? n - settle : 0;
  const double* rf_p = rf.data() + offset;
  const double* nvg_p = windows_[NoiseStreams::kVg] + noise_at;
  const double* ngm_p = windows_[NoiseStreams::kGm] + noise_at;
  const double* nt1_p = windows_[NoiseStreams::kT1] + noise_at;
  const double* nt2_p = windows_[NoiseStreams::kT2] + noise_at;
  const double* npre_p = windows_[NoiseStreams::kPre] + noise_at;
  const double* ncmp_p = windows_[NoiseStreams::kCmp] + noise_at;
  const double* ndac_p = windows_[NoiseStreams::kDac] + noise_at;
  const double* nbuf_p = windows_[NoiseStreams::kBuf] + noise_at;

  // Chunk size keeps the pass-1 scratch (32 KiB) and both passes' noise
  // slices L1/L2-resident while amortizing the loop-switch overhead.
  constexpr std::size_t kChunk = 4096;
  std::vector<double> u_buf(kChunk);

  const std::size_t bb_needed = settle_baseband + baseband_points;
  // CIC normalization: replicate the scalar gain accumulation exactly.
  double cic_gain = 1.0;
  for (std::size_t s = 0; s < DigitalBackend::kCicStages; ++s) {
    cic_gain *= static_cast<double>(DigitalBackend::kCicFactor);
  }
  const double cic_inv_gain = 1.0 / cic_gain;
  const double* hb = hb_taps_.data();
  const double* ch_taps = channel_taps_.data();
  const std::size_t n_ch_taps = channel_taps_.size();

  for (std::size_t base = 0; base < window; base += kChunk) {
    const std::size_t m = std::min(kChunk, window - base);
    // Each front end of [begin, end) runs pass 1 once per chunk, at its
    // first lane here that reads the loop signal; its other lanes follow
    // it straight away.
    for (std::size_t lead = begin; lead < end; ++lead) {
      const auto first = fe_id_.begin() + static_cast<std::ptrdiff_t>(begin);
      const auto here = fe_id_.begin() + static_cast<std::ptrdiff_t>(lead);
      if (std::find(first, here, fe_id_[lead]) != here) continue;
      bool have_u = false;
      for (std::size_t l = lead; l < end; ++l) {
        if (fe_id_[l] != fe_id_[lead] || state[l].done) continue;

        const LaneConstants& c = constants_[l];

        // ---- pass 1: stateless front end (VGLNA + transconductor) ---
        if (!have_u && kind_[l] != LaneKind::kFixed) {
          have_u = true;
          if (!c.gmin_enable) {
            // A disabled transconductor pins the loop signal to zero,
            // which makes the whole VGLNA cascade dead code.
            std::fill_n(u_buf.begin(), m, 0.0);
          } else {
            const Vglna::Stage st = c.front_end.vglna_stage;
            const double vg_rms = c.front_end.vglna_rms;
            const double gm_eff = c.front_end.gm;
            const double gm_iip3 = c.front_end.gm_iip3;
            const double gm_rms = c.front_end.gm_rms;
            for (std::size_t k = 0; k < m; ++k) {
              u_buf[k] = rf_p[base + k] + (0.0 + vg_rms * nvg_p[base + k]);
            }
            for (unsigned s = 0; s < Vglna::kNumStages; ++s) {
              for (std::size_t k = 0; k < m; ++k) {
                u_buf[k] = st.process(u_buf[k]);
              }
            }
            for (std::size_t k = 0; k < m; ++k) {
              u_buf[k] = gm_eff * cubic_soft(u_buf[k], gm_iip3) +
                         (0.0 + gm_rms * ngm_p[base + k]);
            }
          }
        }

        // ---- pass 2: stateful loop + digital backend, per lane kind --
        const auto pass2 = [&](auto kind_tag) {
          constexpr LaneKind kKind = decltype(kind_tag)::value;
          // What the kind steps past resonator 1: resonator 2 and the
          // preamp (full, no-quantiser), then the comparator and the DAC
          // (full).
          constexpr bool kSecondResonator =
              kKind == LaneKind::kFull || kKind == LaneKind::kNoQuantiser;
          constexpr bool kQuantiser = kKind == LaneKind::kFull;

          // ---- per-lane constants -> registers ----------------------
          LaneState lane = state[l];
          const bool fb_en = c.feedback_enable;
          const double cos1 = c.res1_cos, rad1 = c.res1_radius;
          const double cos2 = c.res2_cos, rad2 = c.res2_radius;
          const double pre_gain = c.preamp_gain, pre_rms = c.preamp_rms;
          const double cmp_off = c.comp_offset, cmp_rms = c.comp_rms;
          const bool cmp_clk = c.comp_clock_enable;
          const double dac_lp = c.dac_plus, dac_lm = c.dac_minus;
          const double dac_rms = c.dac_rms;
          // The delay line reads the two taps around its (clamped) delay.
          const double dly = std::clamp(c.delay_samples, 0.0,
                                        static_cast<double>(kDelayDepth - 2));
          const auto dly_whole = static_cast<std::size_t>(dly);
          const double dly_frac = dly - static_cast<double>(dly_whole);
          const std::uint8_t mux = c.test_mux;
          const bool buf_in = c.buffer_in_path;
          const double buf_gain = c.buffer_gain, buf_rms = c.buffer_rms;
          // The comparator's analog (unclocked) value only reaches the
          // output when the test mux selects it; otherwise downstream code
          // consumes nothing but sign(yq), and tanh is odd and monotone
          // with tanh(0) == 0, so the sign of its argument stands in
          // bit-exactly.
          const bool cmp_value_used = mux == 0;

          double* mod_lane = kBackend ? nullptr : &mod_out[l * n_mod];
          std::complex<double>* bb_lane =
              kBackend ? &bb_out[l * baseband_points] : nullptr;

          for (std::size_t k = 0; k < m; ++k) {
            const std::size_t i = base + k;
            const std::size_t at = offset + i;  // index in the whole transient

            // The mux's constant tap: no block upstream reaches it.
            double out = 0.0;
            if constexpr (kKind != LaneKind::kFixed) {
              const double u = u_buf[k];

              // Feedback sample from the fractional delay line; an open
              // loop reads none.
              double fb = 0.0;
              if constexpr (kQuantiser) {
                if (fb_en) {
                  const std::size_t i0 =
                      (lane.dpos + kDelayDepth - dly_whole) % kDelayDepth;
                  const std::size_t i1 =
                      (lane.dpos + kDelayDepth - dly_whole - 1) % kDelayDepth;
                  fb = (1.0 - dly_frac) * lane.dbuf[i0] +
                       dly_frac * lane.dbuf[i1];
                }
              }

              const double s1 = Resonator::advance(
                  lane.r1s1, lane.r1s2, cos1, rad1,
                  -(lane.u_hist - fb) + (0.0 + kTankNoiseRms * nt1_p[i]));
              double s2 = 0.0;
              if constexpr (kSecondResonator) {
                s2 = Resonator::advance(
                    lane.r2s1, lane.r2s2, cos2, rad2,
                    -(lane.s1_hist - 2.0 * fb) +
                        (0.0 + kTankNoiseRms * nt2_p[i]));
              }
              lane.u_hist = lane.u1;
              lane.u1 = u;
              if constexpr (kSecondResonator) {
                lane.s1_hist = lane.s11;
                lane.s11 = s1;
              }

              if constexpr (kKind == LaneKind::kR1Only) {
                out = Comparator::kBufferRail * (s1 / Resonator::kStateRail);
              } else {
                // Quantizer path.
                const double pre = std::clamp(
                    pre_gain * s2 + (0.0 + pre_rms * npre_p[i]),
                    -PreAmplifier::kRail, PreAmplifier::kRail);
                if constexpr (!kQuantiser) {
                  out = Comparator::kBufferRail * (pre / PreAmplifier::kRail);
                } else {
                  const double v =
                      pre + cmp_off + (0.0 + cmp_rms * ncmp_p[i]);
                  double yq;
                  if (cmp_clk) {
                    yq = v >= 0.0 ? 1.0 : -1.0;
                  } else if (cmp_value_used) {
                    yq = Comparator::kBufferRail * std::tanh(v);
                  } else {
                    yq = v >= 0.0 ? 1.0 : -1.0;
                  }

                  // DAC drives the delay line whether or not the loop is
                  // closed.
                  const double fbv = (yq >= 0.0 ? dac_lp : dac_lm) +
                                     (0.0 + dac_rms * ndac_p[i]);
                  lane.dpos = (lane.dpos + 1) % kDelayDepth;
                  lane.dbuf[lane.dpos] = fbv;

                  out = yq;
                  switch (mux) {
                    case 1:
                      out = Comparator::kBufferRail *
                            (s1 / Resonator::kStateRail);
                      break;
                    case 2:
                      out = Comparator::kBufferRail *
                            (pre / PreAmplifier::kRail);
                      break;
                    default:
                      break;
                  }
                }
              }
            }
            if (buf_in) {
              out = std::clamp(buf_gain * out + (0.0 + buf_rms * nbuf_p[i]),
                               -OutputBuffer::kRail, OutputBuffer::kRail);
            }

            if constexpr (!kBackend) {
              if (at >= settle) mod_lane[at - settle] = out;
              continue;
            }
            if (at < settle) continue;

            // ---- digital backend (this lane) --------------------------
            // Schmitt lane.slicer.
            if (out > DigitalBackend::kLogicVih) {
              lane.slicer = 1.0;
            } else if (out < DigitalBackend::kLogicVil) {
              lane.slicer = -1.0;
            }
            // fs/4 mixer: the LO samples are exact, one component is
            // always 0.
            double acc_re, acc_im;
            switch (lane.mix_phase) {
              case 0:
                acc_re = lane.slicer;
                acc_im = 0.0;
                break;
              case 1:
                acc_re = 0.0;
                acc_im = -lane.slicer;
                break;
              case 2:
                acc_re = -lane.slicer;
                acc_im = 0.0;
                break;
              default:
                acc_re = 0.0;
                acc_im = lane.slicer;
                break;
            }
            lane.mix_phase = (lane.mix_phase + 1) & 3u;

            // CIC integrators run every sample.
            for (std::size_t s = 0; s < DigitalBackend::kCicStages; ++s) {
              lane.ci_re[s] += acc_re;
              acc_re = lane.ci_re[s];
              lane.ci_im[s] += acc_im;
              acc_im = lane.ci_im[s];
            }
            if (++lane.cic_phase < DigitalBackend::kCicFactor) continue;
            lane.cic_phase = 0;
            for (std::size_t s = 0; s < DigitalBackend::kCicStages; ++s) {
              const double prev_r = lane.cb_re[s];
              lane.cb_re[s] = acc_re;
              acc_re = acc_re - prev_r;
              const double prev_i = lane.cb_im[s];
              lane.cb_im[s] = acc_im;
              acc_im = acc_im - prev_i;
            }
            acc_re *= cic_inv_gain;
            acc_im *= cic_inv_gain;

            // Half-band stage 1: history advances on every CIC output, the
            // dot product fires every second one (DecimatingFir semantics,
            // including the shorter dot while the history fills).
            lane.h1_re[lane.h1_next] = acc_re;
            lane.h1_im[lane.h1_next] = acc_im;
            const std::size_t h1_newest = lane.h1_next;
            lane.h1_next = (lane.h1_next + 1) % kHbTaps;
            if (lane.h1_count < kHbTaps) ++lane.h1_count;
            if (++lane.h1_phase < 2) continue;
            lane.h1_phase = 0;
            acc_re = 0.0;
            acc_im = 0.0;
            {
              std::size_t slot = h1_newest;
              for (std::size_t t = 0; t < lane.h1_count; ++t) {
                acc_re += lane.h1_re[slot] * hb[t];
                acc_im += lane.h1_im[slot] * hb[t];
                slot = slot == 0 ? kHbTaps - 1 : slot - 1;
              }
            }

            // Half-band stage 2.
            lane.h2_re[lane.h2_next] = acc_re;
            lane.h2_im[lane.h2_next] = acc_im;
            const std::size_t h2_newest = lane.h2_next;
            lane.h2_next = (lane.h2_next + 1) % kHbTaps;
            if (lane.h2_count < kHbTaps) ++lane.h2_count;
            if (++lane.h2_phase < 2) continue;
            lane.h2_phase = 0;
            acc_re = 0.0;
            acc_im = 0.0;
            {
              std::size_t slot = h2_newest;
              for (std::size_t t = 0; t < lane.h2_count; ++t) {
                acc_re += lane.h2_re[slot] * hb[t];
                acc_im += lane.h2_im[slot] * hb[t];
                slot = slot == 0 ? kHbTaps - 1 : slot - 1;
              }
            }

            // Channel FIR (fixed-length circular history, zero-filled).
            lane.ch_re[lane.ch_pos] = acc_re;
            lane.ch_im[lane.ch_pos] = acc_im;
            double out_re = 0.0, out_im = 0.0;
            std::size_t idx = lane.ch_pos;
            for (std::size_t t = 0; t < n_ch_taps; ++t) {
              out_re += lane.ch_re[idx] * ch_taps[t];
              out_im += lane.ch_im[idx] * ch_taps[t];
              idx = idx == 0 ? kChannelTaps - 1 : idx - 1;
            }
            lane.ch_pos = (lane.ch_pos + 1) % kChannelTaps;

            if (lane.produced >= settle_baseband &&
                lane.produced - settle_baseband < baseband_points) {
              bb_lane[lane.produced - settle_baseband] = {out_re, out_im};
            }
            ++lane.produced;
            if (lane.produced >= bb_needed) {
              lane.done = true;
              break;
            }
          }

          state[l] = lane;
        };
        switch (kind_[l]) {
          case LaneKind::kFull:
            pass2(std::integral_constant<LaneKind, LaneKind::kFull>{});
            break;
          case LaneKind::kNoQuantiser:
            pass2(std::integral_constant<LaneKind, LaneKind::kNoQuantiser>{});
            break;
          case LaneKind::kR1Only:
            pass2(std::integral_constant<LaneKind, LaneKind::kR1Only>{});
            break;
          case LaneKind::kFixed:
            pass2(std::integral_constant<LaneKind, LaneKind::kFixed>{});
            break;
        }
      }
    }
  }
}

void ReceiverBatch::capture(std::span<const double> rf, std::size_t settle,
                            bool run_backend, std::size_t baseband_points,
                            std::size_t settle_baseband,
                            std::span<double> mod_out,
                            std::span<std::complex<double>> bb_out,
                            par::ThreadPool& pool) {
  const std::size_t n = rf.size();
  const bool from_prefix = begin_capture(n, pool);
  // One slot for a capture that fits in a window, else two half-window
  // slots taken in turn: slot w sits at (w % 2) * slot_len.
  const std::size_t slot_len =
      from_prefix || n <= kNoiseWindow ? n : kNoiseWindow / 2;
  const std::size_t slots = (n + slot_len - 1) / slot_len;
  const std::size_t lane_chunks = std::min(pool.size(), lanes_);
  std::vector<LaneState> state(lanes_);
  std::uint64_t overlapped = 0;
  // Pass p advances the lanes through slot p - 1 (pass 0 has none) while
  // the workers draw slot p (the last pass, and a prefix-served capture,
  // draw none).
  for (std::size_t p = from_prefix ? 1 : 0; p <= slots; ++p) {
    const std::size_t offset = p == 0 ? 0 : (p - 1) * slot_len;
    const std::size_t window = p == 0 ? 0 : std::min(slot_len, n - offset);
    const std::size_t lane_slot = p == 0 ? 0 : (p - 1) % 2 * slot_len;
    const std::size_t drawn =
        from_prefix || p == slots ? 0 : std::min(slot_len, n - p * slot_len);
    NoiseDraw draw(noise_, p % 2 * slot_len, drawn);
    if (window > 0) overlapped += noise_.count * drawn;
    const std::size_t workers = std::min(
        pool.size(), std::max(window > 0 ? lane_chunks : 0,
                              draw.piece_count()));
    // Only a draw with no lane pass beside it keeps the lanes waiting.
    std::optional<obs::TraceSpan> wait;
    if (window == 0) wait.emplace("rf.batch.noise", false);
    pool.parallel_for(workers, [&](std::size_t begin, std::size_t end) {
      for (std::size_t w = begin; w < end; ++w) {
        // Worker w's lanes: its share of the lanes' summed weights.
        if (window > 0 && w < lane_chunks) {
          const std::size_t first = lane_split(w, lane_chunks);
          const std::size_t last = lane_split(w + 1, lane_chunks);
          if (run_backend) {
            run_lanes<true>(first, last, rf, offset, window, lane_slot,
                            settle, baseband_points, settle_baseband, state,
                            {}, bb_out);
          } else {
            run_lanes<false>(first, last, rf, offset, window, lane_slot,
                             settle, 0, 0, state, mod_out, {});
          }
        }
        draw.claim_pieces();
      }
    });
  }
  if (!from_prefix) obs::count("rf.batch.noise_overlapped", overlapped);
}

std::vector<double> ReceiverBatch::capture_modulator(
    std::span<const double> rf, std::size_t settle, par::ThreadPool& pool) {
  ANALOCK_SPAN_QUIET("rf.batch.capture_modulator");
  assert(rf.size() > settle);
  std::vector<double> out(lanes_ * (rf.size() - settle));
  capture(rf, settle, /*run_backend=*/false, 0, 0, out, {}, pool);
  return out;
}

std::vector<std::complex<double>> ReceiverBatch::capture_receiver(
    std::span<const double> rf, std::size_t settle,
    std::size_t baseband_points, std::size_t settle_baseband,
    par::ThreadPool& pool) {
  ANALOCK_SPAN_QUIET("rf.batch.capture_receiver");
  assert(rf.size() >=
         receiver_input_length(baseband_points, settle, settle_baseband));
  std::vector<std::complex<double>> out(lanes_ * baseband_points);
  capture(rf, settle, /*run_backend=*/true, baseband_points, settle_baseband,
          {}, out, pool);
  return out;
}

}  // namespace analock::rf
