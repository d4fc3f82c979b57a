// Fixed-size, work-stealing-free thread pool for sharding batched
// evaluations across workers.
//
// Design constraints (see README "Batched evaluation engine"):
//   * deterministic work assignment: parallel_for splits [0, n) into at
//     most size() contiguous chunks, so which indices land together is a
//     pure function of (n, size()) — results must never depend on which
//     worker ran which chunk;
//   * no work stealing and no clocks: workers block on a condition
//     variable until handed a chunk, keeping the pool trivially
//     analyzable and TSan-clean;
//   * a fork-join never waits on a chunk nobody runs: after its own
//     chunk the caller takes back and runs the chunks of its fork-join
//     that no worker has started, so it finishes even while every worker
//     is busy in another caller's fork-join; it sleeps only on chunks a
//     worker is running;
//   * pool size comes from ANALOCK_THREADS when set, else
//     std::thread::hardware_concurrency().
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace analock::par {

class ThreadPool {
 public:
  /// `threads == 0` means default_thread_count(). A pool of size 1 runs
  /// every parallel_for body inline on the calling thread and spawns no
  /// workers at all.
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return size_; }

  /// Runs `body(begin, end)` over a partition of [0, n) into at most
  /// size() contiguous chunks. The calling thread executes the first
  /// chunk itself; remaining chunks go to the workers, and the caller
  /// then runs those no worker has started. Blocks until all chunks
  /// finish. The first exception thrown by any chunk is
  /// rethrown on the caller after every chunk has completed.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t, std::size_t)>& body);

  /// ANALOCK_THREADS when set to a positive integer, else
  /// hardware_concurrency() (minimum 1).
  static std::size_t default_thread_count();

  /// Process-wide pool sized by default_thread_count(). Constructed on
  /// first use; callers that need a specific thread count (e.g. the
  /// determinism tests) construct their own pool instead.
  static ThreadPool& shared();

 private:
  void worker_loop();

  std::size_t size_ = 1;
  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_;
  /// A queued chunk and the fork-join it belongs to (the address of
  /// that parallel_for call's completion state).
  struct Task {
    const void* owner;
    std::function<void()> run;
  };
  std::deque<Task> queue_;  // analock: guarded_by(mu_)
  bool stop_ = false;       // analock: guarded_by(mu_)
};

}  // namespace analock::par
