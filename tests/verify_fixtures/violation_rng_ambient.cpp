// RNG-source violations: ambient entropy that no engine declaration
// carries, plus an engine whose seed is not a sim::Rng draw even though
// std::shuffle consumes it later.
#include <algorithm>
#include <cstdlib>
#include <ctime>
#include <random>
#include <vector>

namespace fixture {

unsigned ambient_device() {
  std::random_device entropy;  // expect: rng-source
  return entropy();
}

int libc_rng() {
  return rand();  // expect: rng-source
}

void libc_seed() {
  srand(42);  // expect: rng-source
}

long long wall_clock_seed() {
  return static_cast<long long>(time(nullptr));  // expect: rng-source
}

std::mt19937 default_engine() {
  return std::mt19937{};  // expect: rng-source
}

// The engine is the source: the finding sits on its declaration, not on
// the shuffle that draws from it.
void literal_shuffle(std::vector<int>& order) {
  std::mt19937 engine(42);  // expect: rng-source
  std::shuffle(order.begin(), order.end(), engine);
}

}  // namespace fixture
