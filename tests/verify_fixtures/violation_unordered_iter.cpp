// Determinism violation: iterating an unordered container. The visit
// order is the hash order, which varies run to run. Declaring or probing
// the container is not a hazard; iterating it is.
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace fixture {

std::vector<int> slot_order(const std::unordered_set<int>& visited_slots) {
  std::vector<int> order;
  for (const int slot : visited_slots) {  // expect: unordered-iter
    order.push_back(slot);
  }
  return order;
}

// A loop that accumulates floating point is one hazard, reported once.
double metric_total(const std::unordered_map<std::string, double>& m) {
  double total = 0.0;
  for (const auto& [name, value] : m) total += value;  // expect: fp-unordered-accum
  return total;
}

bool has_metric(const std::unordered_map<std::string, double>& m,
                const std::string& name) {
  return m.count(name) > 0;
}

}  // namespace fixture
