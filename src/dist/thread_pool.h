#ifndef DBTF_DIST_THREAD_POOL_H_
#define DBTF_DIST_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace dbtf {

/// Fixed-size worker pool. Tasks are arbitrary callables; ParallelFor blocks
/// until every iteration has finished. Not copyable or movable.
///
/// Locking discipline (machine-checked under Clang `-Wthread-safety`): all
/// queue and completion state is guarded by `mu_`; the condition variables
/// pair with it. `threads_` is written only by the constructor and joined by
/// the destructor, so it needs no guard.
class ThreadPool {
 public:
  /// Starts `num_threads` workers (values < 1 are clamped to 1).
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(threads_.size()); }

  /// Enqueues a task for asynchronous execution.
  void Submit(std::function<void()> task) DBTF_EXCLUDES(mu_);

  /// Blocks until all submitted tasks have completed.
  void Wait() DBTF_EXCLUDES(mu_);

  /// Runs fn(i) for i in [0, n), distributed over the pool; returns when all
  /// iterations are done. Several threads may call it concurrently (Cluster
  /// fans out from every routing thread): each call's iterations run to
  /// completion, and each call returns once the pool is idle, so it may also
  /// wait out iterations submitted by the other callers. Calling it (or
  /// Wait) from inside a pool task would deadlock — Wait would count the
  /// calling task as in flight — so both check-fail with a clear message
  /// when invoked on a pool-owned thread (thread-local flag).
  void ParallelFor(std::int64_t n, const std::function<void(std::int64_t)>& fn)
      DBTF_EXCLUDES(mu_);

 private:
  void WorkerLoop() DBTF_EXCLUDES(mu_);

  std::vector<std::thread> threads_;
  Mutex mu_;
  std::condition_variable work_available_;
  std::condition_variable all_done_;
  std::deque<std::function<void()>> queue_ DBTF_GUARDED_BY(mu_);
  std::int64_t in_flight_ DBTF_GUARDED_BY(mu_) = 0;
  bool shutting_down_ DBTF_GUARDED_BY(mu_) = false;
};

}  // namespace dbtf

#endif  // DBTF_DIST_THREAD_POOL_H_
