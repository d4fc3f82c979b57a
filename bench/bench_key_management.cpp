// Experiment E12 (paper Fig. 3): key-management schemes — tamper-proof
// LUT vs PUF+XOR. Measures load latency (harness-timed microbenchmarks),
// storage overhead, recovery correctness, and the PUF statistics that the
// anti-cloning/anti-recycling arguments rest on.
#include "bench_common.h"

namespace {
// Streams this bench's event record to bench_key_management.jsonl (see ObsSession).
const analock::bench::ObsSession kObsSession("bench_key_management");
}  // namespace
#include "lock/key_manager.h"
#include "lock/puf.h"

namespace {

using namespace analock;
using lock::ArbiterPuf;
using lock::Key64;
using lock::PufXorScheme;
using lock::TamperProofLutScheme;

void run_report() {
  bench::banner("Fig. 3 — key-management schemes",
                "tamper-proof LUT vs PUF+XOR: storage, correctness, stats");

  const std::size_t slots = rf::all_standards().size();
  sim::Rng master(bench::kBenchSeed);

  TamperProofLutScheme lut(slots);
  ArbiterPuf puf(master.fork("puf"));
  PufXorScheme pufxor(puf, slots);

  sim::Rng key_rng(42);
  std::vector<Key64> keys;
  for (std::size_t s = 0; s < slots; ++s) {
    keys.push_back(Key64::random(key_rng));
    lut.provision(s, keys.back());
    pufxor.provision(s, keys.back());
  }

  int lut_ok = 0;
  int puf_ok = 0;
  for (std::size_t s = 0; s < slots; ++s) {
    if (lut.load(s) == keys[s]) ++lut_ok;
    if (pufxor.load(s) == keys[s]) ++puf_ok;
  }
  // analock-verify: allow(taint-sink) experiment tables include the calibrated key column
  std::printf("recovery correctness: LUT %d/%zu, PUF+XOR %d/%zu "
              "(10 power-on cycles each below)\n",
              lut_ok, slots, puf_ok, slots);
  int stable = 0;
  for (int cycle = 0; cycle < 10; ++cycle) {
    if (pufxor.load(0) == keys[0]) ++stable;
  }
  std::printf("PUF+XOR regeneration stability: %d/10 power-ons\n", stable);

  // analock-verify: allow(taint-sink) experiment tables include the calibrated key column
  std::printf("storage: LUT %zu bits on-chip tamper-proof NVM; PUF+XOR "
              "%zu bits of user-key material (may live off-chip) + the "
              "PUF itself\n",
              lut.storage_bits(), pufxor.storage_bits());

  // PUF quality statistics.
  double uniqueness = 0.0;
  const int chips = 20;
  for (int i = 0; i < chips; ++i) {
    ArbiterPuf a(sim::Rng(static_cast<std::uint64_t>(7000 + 2 * i)));
    ArbiterPuf b(sim::Rng(static_cast<std::uint64_t>(7001 + 2 * i)));
    uniqueness += a.identification_key(0).hamming_distance(
        b.identification_key(0));
  }
  std::printf("PUF inter-chip uniqueness: mean Hamming distance %.1f/64 "
              "(ideal 32)\n", uniqueness / chips);

  // Cloning: user keys moved to another die.
  ArbiterPuf clone_puf(master.fork("clone-puf"));
  PufXorScheme clone(clone_puf, slots);
  clone.install_user_key(0, *pufxor.user_key(0));
  const auto wrong = clone.load(0);
  // analock-verify: allow(taint-sink) experiment tables include the calibrated key column
  std::printf("cloned die unwrap error: %u/64 key bits wrong -> "
              "non-functional configuration\n",
              wrong->hamming_distance(keys[0]));

  std::printf("\npaper: both schemes serve all configuration settings; the "
              "PUF variant additionally defeats recycling when user keys "
              "are loaded at every power-on\n");
}

/// Inner-loop sizes for the load-latency microbenchmarks (the
/// per-power-on cost of each scheme); the harness divides by these
/// via CaseOptions::ops_per_rep.
constexpr int kLoadOps = 256;
constexpr int kResponseOps = 4096;

}  // namespace

int main() {
  using namespace analock;
  analock::bench::Harness h("bench_key_management");
  h.add_case("report", run_report);

  bench::CaseOptions load_opts;
  load_opts.ops_per_rep = static_cast<double>(kLoadOps);
  h.add_case("lut_load", [] {
    TamperProofLutScheme lut(6);
    sim::Rng rng(1);
    lut.provision(0, Key64::random(rng));
    for (int i = 0; i < kLoadOps; ++i) {
      auto k = lut.load(0);
      bench::do_not_optimize(k);
    }
  }, load_opts);
  h.add_case("pufxor_load", [] {
    sim::Rng master(2);
    ArbiterPuf puf(master);
    PufXorScheme scheme(puf, 6);
    sim::Rng rng(3);
    scheme.provision(0, Key64::random(rng));
    for (int i = 0; i < kLoadOps; ++i) {
      auto k = scheme.load(0);
      bench::do_not_optimize(k);
    }
  }, load_opts);

  bench::CaseOptions response_opts;
  response_opts.ops_per_rep = static_cast<double>(kResponseOps);
  h.add_case("puf_response", [] {
    sim::Rng master(4);
    ArbiterPuf puf(master);
    std::uint64_t challenge = 0x123456789ABCDEFull;
    for (int i = 0; i < kResponseOps; ++i) {
      bool bit = puf.response(challenge);
      bench::do_not_optimize(bit);
      challenge = challenge * 6364136223846793005ULL + 1;
    }
  }, response_opts);

  return h.run();
}
