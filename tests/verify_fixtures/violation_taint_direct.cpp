// Direct taint violations: secret identifiers straight into sinks.
#include <cstdio>
#include <iostream>
#include <string>

namespace fixture {

void leak_printf(unsigned long long key_bits) {
  std::printf("key=%llx\n", key_bits);  // expect: taint-sink
}

void leak_stream(const std::string& puf_response_secret) {
  std::cout << "resp=" << puf_response_secret << "\n";  // expect: taint-sink
}

void leak_into_obs(const Key64& config_key) {
  obs::event("calib.done", {{"key", config_key.to_hex()}});  // expect: taint-sink
  obs::set_gauge("lock.word", static_cast<double>(config_key.bits()));  // expect: taint-sink
}

}  // namespace fixture
