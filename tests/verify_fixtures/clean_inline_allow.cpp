// Clean fixture: real violations silenced by inline allow comments with
// a rationale — the self-test must see zero findings here.
#include <cstdio>
#include <random>

namespace fixture {

void documented_key_dump(unsigned long long key_bits) {
  // analock-verify: allow(taint-sink) test-vector dump behind a debug flag
  std::printf("key=%llx\n", key_bits);
}

int documented_engine() {
  std::mt19937 gen(12345u);  // analock-verify: allow(rng-source) fixed literal seed for a golden test
  return static_cast<int>(gen());
}

bool attacker_side_compare(unsigned long long candidate_config_key,
                           unsigned long long probe) {
  // Both operands are the attacker's own hypotheses; nothing secret.
  // analock-verify: allow(secret-compare) attacker-side hypotheses
  return candidate_config_key == probe;
}

bool same_line_allow(unsigned long long candidate_config_key,
                     unsigned long long probe) {
  return candidate_config_key != probe;  // analock-verify: allow(secret-compare) attacker-side hypotheses
}

}  // namespace fixture
