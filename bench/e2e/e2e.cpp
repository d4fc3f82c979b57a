#include "e2e.h"

#include <time.h>

#include <cstdio>
#include <cstring>
#include <set>
#include <stdexcept>

#include "analysis/model.h"
#include "obs/clock.h"
#include "obs/metrics.h"

namespace analock::e2e {

void Digest::add(std::uint64_t v) {
  bytes_.append(reinterpret_cast<const char*>(&v), sizeof v);
}

void Digest::add(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  add(bits);
}

void Digest::add(std::string_view s) {
  add(static_cast<std::uint64_t>(s.size()));
  bytes_.append(s);
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(analysis::fnv1a64(bytes_)));
  return buf;
}

SpanLog::Scope::Scope(SpanLog* log, const char* name) : log_(log) {
  if (log_ == nullptr) return;
  Record record;
  record.id = static_cast<std::uint32_t>(log_->records_.size() + 1);
  record.parent =
      log_->open_.empty() ? 0 : log_->records_[log_->open_.back()].id;
  record.request = log_->request_;
  record.name = name;
  index_ = log_->records_.size();
  log_->records_.push_back(record);
  log_->open_.push_back(index_);
  log_->records_[index_].start_ns = now_ns();
}

SpanLog::Scope::~Scope() {
  if (log_ == nullptr) return;
  log_->records_[index_].end_ns = now_ns();
  log_->open_.pop_back();
}

std::uint64_t now_ns() {
  static const obs::SteadyClock clock;
  return clock.now_ns();
}

std::uint64_t process_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

OpScope::OpScope(SpanLog* trace, const char* name, OpResult& result)
    : span_(trace, name), result_(result), traced_(trace != nullptr) {
  if (traced_) obs::registry().set_enabled(true);
  cpu0_ = process_cpu_ns();
  wall0_ = now_ns();
}

OpScope::~OpScope() {
  result_.wall_ns = static_cast<double>(now_ns() - wall0_);
  result_.cpu_ns = static_cast<double>(process_cpu_ns() - cpu0_);
  if (traced_) obs::registry().set_enabled(false);
}

std::map<std::string, SpanLog::Total> SpanLog::totals() const {
  std::vector<double> child_ns(records_.size() + 1, 0.0);
  for (const Record& r : records_) {
    if (r.parent != 0) {
      child_ns[r.parent] += static_cast<double>(r.end_ns - r.start_ns);
    }
  }
  std::map<std::string, Total> out;
  for (const Record& r : records_) {
    const double dur = static_cast<double>(r.end_ns - r.start_ns);
    Total& t = out[r.name];
    ++t.calls;
    t.total_ns += dur;
    t.self_ns += dur - child_ns[r.id];
  }
  return out;
}

ProfileTotals profile_totals(const prof::SpanProfiler& profiler) {
  ProfileTotals out;
  for (const auto& node : profiler.nodes()) {
    SpanLog::Total& t = out[node.name];
    t.calls += node.calls;
    t.total_ns += node.total_ns;
    t.self_ns += node.self_ns;
  }
  return out;
}

double total_ms(const std::map<std::string, SpanLog::Total>& totals,
                const std::string& name) {
  const auto it = totals.find(name);
  return it == totals.end() ? 0.0 : it->second.total_ns / 1e6;
}

double self_ms(const std::map<std::string, SpanLog::Total>& totals,
               const std::string& name) {
  const auto it = totals.find(name);
  return it == totals.end() ? 0.0 : it->second.self_ns / 1e6;
}

double calls(const std::map<std::string, SpanLog::Total>& totals,
             const std::string& name) {
  const auto it = totals.find(name);
  return it == totals.end() ? 0.0 : static_cast<double>(it->second.calls);
}

std::size_t signature_groups(const std::vector<std::uint64_t>& bits) {
  std::set<std::uint64_t> groups;
  for (const std::uint64_t b : bits) groups.insert(b >> 58);
  return groups.size();
}

std::unique_ptr<Workload> make_workload(std::string_view name,
                                        const Config& config) {
  if (name == "calibrate") return make_calibrate(config);
  if (name == "bruteforce") return make_bruteforce(config);
  if (name == "rx_near") return make_rx_near(config);
  if (name == "verify") return make_verify(config);
  throw std::invalid_argument("unknown workload: " + std::string(name));
}

}  // namespace analock::e2e
