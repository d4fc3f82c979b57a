#include "obs/prof/span_profile.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <string_view>
#include <utility>

namespace analock::prof {

namespace {

std::atomic<SpanProfiler*> g_profiler{nullptr};

/// One open span on the calling thread. The frame remembers which
/// profiler it belongs to so a detach between enter and exit cannot
/// corrupt the stack or charge a dead profiler.
struct Frame {
  SpanProfiler* owner = nullptr;
  const char* name = nullptr;
  std::string path;
  double child_ns = 0.0;
};

thread_local std::vector<Frame> tls_frames;

}  // namespace

SpanProfiler::~SpanProfiler() {
  // A profiler must never be destroyed while attached: exits would
  // dereference a dead pointer. Detach defensively.
  SpanProfiler* expected = this;
  g_profiler.compare_exchange_strong(expected, nullptr);
}

void SpanProfiler::attach() { g_profiler.store(this); }

void SpanProfiler::detach() { g_profiler.store(nullptr); }

SpanProfiler* SpanProfiler::current() { return g_profiler.load(); }

bool SpanProfiler::on_enter(const char* name) {
  SpanProfiler* profiler = g_profiler.load(std::memory_order_acquire);
  if (profiler == nullptr) return false;
  Frame frame;
  frame.owner = profiler;
  frame.name = name;
  if (tls_frames.empty()) {
    frame.path = name;
  } else {
    frame.path.reserve(tls_frames.back().path.size() + 1 +
                       std::char_traits<char>::length(name));
    frame.path = tls_frames.back().path;
    frame.path += ';';
    frame.path += name;
  }
  tls_frames.push_back(std::move(frame));
  return true;
}

void SpanProfiler::on_exit(const char* name, std::uint64_t dur_ns) {
  if (tls_frames.empty()) return;
  Frame frame = std::move(tls_frames.back());
  tls_frames.pop_back();
  if (frame.name != name && (frame.name == nullptr ||
                             std::string_view(frame.name) != name)) {
    // Mismatched pairing (attach raced a live span); drop the frame.
    return;
  }

  const double total_ns = static_cast<double>(dur_ns);
  const double self_ns = std::max(0.0, total_ns - frame.child_ns);

  // Charge this span's totals to the parent's child accumulators so the
  // parent's self time excludes it.
  if (!tls_frames.empty()) {
    tls_frames.back().child_ns += total_ns;
  }

  // Only record into the profiler that was attached at enter, and only
  // while it is still the current one (otherwise it may be destroyed).
  if (frame.owner == g_profiler.load(std::memory_order_acquire)) {
    frame.owner->record(frame.path, name,
                        static_cast<int>(tls_frames.size()), total_ns,
                        self_ns);
  }
}

void SpanProfiler::record(const std::string& path, const char* name,
                          int depth, double total_ns, double self_ns) {
  const std::scoped_lock lock(mu_);
  Node& node = tree_[path];
  if (node.calls == 0) {
    node.path = path;
    node.name = name;
    node.depth = depth;
  }
  ++node.calls;
  node.total_ns += total_ns;
  node.self_ns += self_ns;
}

std::vector<SpanProfiler::Node> SpanProfiler::nodes() const {
  const std::scoped_lock lock(mu_);
  std::vector<Node> out;
  out.reserve(tree_.size());
  for (const auto& [path, node] : tree_) out.push_back(node);
  return out;
}

std::string SpanProfiler::folded_stacks() const {
  std::string out;
  for (const Node& node : nodes()) {
    // flamegraph.pl expects integer sample counts; use self-time in
    // microseconds so stack widths stay proportional to real time.
    const auto self_us =
        static_cast<std::uint64_t>(std::llround(node.self_ns / 1e3));
    out += node.path;
    out += ' ';
    out += std::to_string(self_us);
    out += '\n';
  }
  return out;
}

void SpanProfiler::print_tree(std::FILE* out) const {
  const std::vector<Node> all = nodes();
  if (all.empty()) return;
  std::fprintf(out, "\n------------------------------ span profile "
                    "------------------------------\n");
  std::fprintf(out, "%-44s %8s %12s %12s\n", "span tree", "calls",
               "total[ms]", "self[ms]");
  for (const Node& node : all) {
    std::string label(static_cast<std::size_t>(node.depth) * 2, ' ');
    label += node.name;
    if (label.size() > 44) label.resize(44);
    std::fprintf(out, "%-44s %8llu %12.3f %12.3f\n", label.c_str(),
                 static_cast<unsigned long long>(node.calls),
                 node.total_ns / 1e6, node.self_ns / 1e6);
  }
  std::fprintf(out, "--------------------------------------------------------"
                    "----------------------\n");
}

}  // namespace analock::prof
