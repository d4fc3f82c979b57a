#include "obs/metrics.h"

#include <algorithm>
#include <cstdlib>
#include <string>

#include "obs/jsonl_sink.h"
#include "obs/report.h"

namespace analock::obs {

// ---------------------------------------------------------------- Histogram

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), counts_(bounds_.size() + 1, 0) {}

void Histogram::observe(double value) {
  const std::scoped_lock lock(mu_);
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  ++counts_[static_cast<std::size_t>(it - bounds_.begin())];
  if (count_ == 0) {
    min_ = value;
    max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
}

std::uint64_t Histogram::count() const {
  const std::scoped_lock lock(mu_);
  return count_;
}

double Histogram::sum() const {
  const std::scoped_lock lock(mu_);
  return sum_;
}

double Histogram::min() const {
  const std::scoped_lock lock(mu_);
  return min_;
}

double Histogram::max() const {
  const std::scoped_lock lock(mu_);
  return max_;
}

// analock: requires(mu_)
double Histogram::quantile_locked(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count_);
  double cum = 0.0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    const double prev = cum;
    cum += static_cast<double>(counts_[i]);
    if (cum >= target) {
      // Interpolate inside the bucket, then clamp to the observed range
      // (the overflow bucket has no upper edge: report the true max).
      if (i >= bounds_.size()) return max_;
      const double hi = bounds_[i];
      const double lo = i == 0 ? std::min(min_, hi) : bounds_[i - 1];
      const double pos =
          (target - prev) / static_cast<double>(counts_[i]);
      return std::clamp(lo + pos * (hi - lo), min_, max_);
    }
  }
  return max_;
}

double Histogram::quantile(double q) const {
  const std::scoped_lock lock(mu_);
  return quantile_locked(q);
}

HistogramSnapshot Histogram::snapshot() const {
  const std::scoped_lock lock(mu_);
  HistogramSnapshot s;
  s.count = count_;
  s.sum = sum_;
  s.min = min_;
  s.max = max_;
  s.p50 = quantile_locked(0.5);
  s.p95 = quantile_locked(0.95);
  return s;
}

void Histogram::reset() {
  const std::scoped_lock lock(mu_);
  std::fill(counts_.begin(), counts_.end(), 0);
  count_ = 0;
  sum_ = 0.0;
  min_ = 0.0;
  max_ = 0.0;
}

std::vector<double> Histogram::exponential_bounds(double start, double factor,
                                                  std::size_t n) {
  std::vector<double> bounds;
  bounds.reserve(n);
  double edge = start;
  for (std::size_t i = 0; i < n; ++i) {
    bounds.push_back(edge);
    edge *= factor;
  }
  return bounds;
}

std::vector<double> Histogram::default_duration_bounds_ms() {
  // 1 us, 2 us, 4 us, ... ~34 s: 26 power-of-two edges in milliseconds.
  return exponential_bounds(1e-3, 2.0, 26);
}

// ----------------------------------------------------------------- Registry

namespace {

const SteadyClock& steady_clock_instance() {
  static const SteadyClock clock;
  return clock;
}

template <typename Map, typename Make>
auto& find_or_create(Map& map, std::string_view name, Make make) {
  auto it = map.find(name);
  if (it == map.end()) {
    it = map.emplace(std::string(name), make()).first;
  }
  return *it->second;
}

template <typename Map, typename Snapshot>
auto snapshot_map(const Map& map, Snapshot snap) {
  using Value = decltype(snap(*map.begin()->second));
  std::vector<std::pair<std::string, Value>> out;
  out.reserve(map.size());
  for (const auto& [name, metric] : map) out.emplace_back(name, snap(*metric));
  return out;
}

}  // namespace

void Registry::set_clock(const Clock* clock) {
  clock_.store(clock, std::memory_order_release);
}

std::uint64_t Registry::now_ns() const {
  const Clock* clock = clock_.load(std::memory_order_acquire);
  if (clock == nullptr) clock = &steady_clock_instance();
  return clock->now_ns();
}

Counter& Registry::counter(std::string_view name) {
  const std::scoped_lock lock(mu_);
  return find_or_create(counters_, name,
                        [] { return std::make_unique<Counter>(); });
}

Gauge& Registry::gauge(std::string_view name) {
  const std::scoped_lock lock(mu_);
  return find_or_create(gauges_, name,
                        [] { return std::make_unique<Gauge>(); });
}

Histogram& Registry::histogram(std::string_view name) {
  return histogram(name, Histogram::default_duration_bounds_ms());
}

Histogram& Registry::histogram(std::string_view name,
                               std::vector<double> bounds) {
  const std::scoped_lock lock(mu_);
  return find_or_create(histograms_, name, [&] {
    return std::make_unique<Histogram>(std::move(bounds));
  });
}

Histogram& Registry::span_histogram(std::string_view name) {
  const std::scoped_lock lock(mu_);
  return find_or_create(spans_, name, [] {
    return std::make_unique<Histogram>(
        Histogram::default_duration_bounds_ms());
  });
}

void Registry::set_sink(std::unique_ptr<EventSink> sink) {
  std::unique_ptr<EventSink> old;
  {
    const std::scoped_lock lock(sink_mu_);
    old = std::move(sink_);
    sink_ = std::move(sink);
  }
  if (old) old->flush();
}

bool Registry::has_sink() const {
  const std::scoped_lock lock(sink_mu_);
  return sink_ != nullptr;
}

void Registry::emit(const Event& event) {
  const std::scoped_lock lock(sink_mu_);
  if (sink_) sink_->emit(event);
}

void Registry::flush() {
  const std::scoped_lock lock(sink_mu_);
  if (sink_) sink_->flush();
}

void Registry::reset_values() {
  const std::scoped_lock lock(mu_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
  for (auto& [name, h] : spans_) h->reset();
}

std::vector<std::pair<std::string, std::uint64_t>> Registry::counters() const {
  const std::scoped_lock lock(mu_);
  return snapshot_map(counters_, [](const Counter& c) { return c.value(); });
}

std::vector<std::pair<std::string, double>> Registry::gauges() const {
  const std::scoped_lock lock(mu_);
  return snapshot_map(gauges_, [](const Gauge& g) { return g.value(); });
}

std::vector<std::pair<std::string, HistogramSnapshot>> Registry::histograms()
    const {
  const std::scoped_lock lock(mu_);
  return snapshot_map(histograms_,
                      [](const Histogram& h) { return h.snapshot(); });
}

std::vector<std::pair<std::string, HistogramSnapshot>> Registry::span_stats()
    const {
  const std::scoped_lock lock(mu_);
  return snapshot_map(spans_,
                      [](const Histogram& h) { return h.snapshot(); });
}

// ------------------------------------------------------------------- global

void init_from_env(Registry& reg) {
  const char* jsonl = std::getenv("ANALOCK_OBS_JSONL");
  if (jsonl != nullptr && jsonl[0] != '\0' &&
      std::string_view(jsonl) != "0") {
    auto sink = std::make_unique<JsonlSink>(jsonl);
    if (sink->ok()) {
      reg.set_sink(std::move(sink));
      reg.set_enabled(true);
      emit_summaries_at_exit();
    }
  }
  const char* on = std::getenv("ANALOCK_OBS");
  if (on != nullptr && on[0] != '\0' && std::string_view(on) != "0") {
    reg.set_enabled(true);
  }
  const char* report = std::getenv("ANALOCK_OBS_REPORT");
  if (report != nullptr && std::string_view(report) == "1") {
    print_report_at_exit();
  }
}

Registry& registry() {
  static Registry reg;
  // Completes after `reg`, so it is destroyed first; ordering keeps the
  // registry alive for any static-duration user that touched it. The
  // steady clock is built before init_from_env registers the exit
  // handlers, so it outlives the exit report that reads it.
  static const bool env_applied =
      (steady_clock_instance(), init_from_env(reg), true);
  (void)env_applied;
  return reg;
}

}  // namespace analock::obs
