// Fixture: early-exit equality on key material. The latency of `==` on
// a multi-word key reveals how long a prefix matched, so secret
// comparisons go through ct_equal. Operands come from the same extraction
// as vartime-op's division operands.
#include <cstdint>
#include <cstring>
#include <vector>

namespace fix_ct_compare {

struct Key64 {
  std::uint64_t word = 0;
};

bool operator==(const Key64& a, const Key64& b);

bool oracle_accepts(const Key64& stored_config_key, const Key64& probe) {
  return stored_config_key == probe;  // expect: secret-compare
}

bool oracle_rejects(const Key64& user_key_slot, const Key64& probe) {
  return user_key_slot != probe;  // expect: secret-compare
}

// One hazard, one finding: memcmp on the key is ct-leak-call's site, and
// the `== 0` on its result adds nothing, because call arguments do not
// make an operand secret.
bool byte_oracle(const Key64& wrapped_key, const Key64& probe) {
  return std::memcmp(&wrapped_key, &probe, sizeof probe) == 0;  // expect: ct-leak-call
}

// Likewise a compare inside a condition secret-branch already reports.
int gate(std::uint64_t chip_key) {
  if (chip_key == 0) return 1;  // expect: secret-branch
  return 0;
}

// Length is public: the compare is on a size, not on key material.
bool no_user_keys(const std::vector<std::uint64_t>& user_keys) {
  return user_keys.size() == 0;
}

}  // namespace fix_ct_compare
