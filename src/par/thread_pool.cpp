#include "par/thread_pool.h"

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <string>

namespace analock::par {

ThreadPool::ThreadPool(std::size_t threads)
    : size_(threads == 0 ? default_thread_count() : threads) {
  if (size_ < 2) return;
  workers_.reserve(size_ - 1);
  for (std::size_t i = 0; i + 1 < size_; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait(lk, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and queue drained
      task = std::move(queue_.front().run);
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::parallel_for(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& body) {
  if (n == 0) return;
  const std::size_t chunks = size_ < n ? size_ : n;
  if (chunks < 2) {
    body(0, n);
    return;
  }

  struct Sync {
    std::mutex m;
    std::condition_variable cv;
    std::size_t remaining = 0;
    std::exception_ptr error;
  } sync;
  sync.remaining = chunks - 1;

  const auto chunk_begin = [n, chunks](std::size_t c) {
    return c * n / chunks;
  };
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (std::size_t c = 1; c < chunks; ++c) {
      queue_.push_back({&sync, [&sync, &body, begin = chunk_begin(c),
                                end = chunk_begin(c + 1)] {
        std::exception_ptr err;
        try {
          body(begin, end);
        } catch (...) {
          err = std::current_exception();
        }
        // Signal under the lock: `sync` lives on the caller's stack, and
        // notifying after unlocking would race the caller waking on the
        // last decrement and destroying `sync` mid-notify.
        std::lock_guard<std::mutex> done_lk(sync.m);
        if (err && !sync.error) sync.error = err;
        --sync.remaining;
        sync.cv.notify_one();
      }});
    }
  }
  cv_.notify_all();

  // The caller works chunk 0 while the workers drain the rest.
  std::exception_ptr caller_error;
  try {
    body(0, chunk_begin(1));
  } catch (...) {
    caller_error = std::current_exception();
  }
  // Then it runs every chunk of its own that no worker has started: the
  // workers may all be busy in other callers' chunks.
  for (;;) {
    std::function<void()> task;
    {
      std::lock_guard<std::mutex> lk(mu_);
      const auto own = std::find_if(
          queue_.begin(), queue_.end(),
          [&sync](const Task& queued) { return queued.owner == &sync; });
      if (own == queue_.end()) break;
      task = std::move(own->run);
      queue_.erase(own);
    }
    task();
  }

  std::unique_lock<std::mutex> done_lk(sync.m);
  sync.cv.wait(done_lk, [&sync] { return sync.remaining == 0; });
  if (caller_error) std::rethrow_exception(caller_error);
  if (sync.error) std::rethrow_exception(sync.error);
}

std::size_t ThreadPool::default_thread_count() {
  if (const char* env = std::getenv("ANALOCK_THREADS")) {
    char* end = nullptr;
    const long parsed = std::strtol(env, &end, 10);
    if (end != env && parsed > 0) return static_cast<std::size_t>(parsed);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool;
  return pool;
}

}  // namespace analock::par
