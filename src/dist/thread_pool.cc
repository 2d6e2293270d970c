#include "dist/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "common/check.h"

namespace dbtf {
namespace {

/// True on threads owned by *any* ThreadPool, for the lifetime of the
/// thread. Set once at WorkerLoop entry; used to catch the silent
/// ParallelFor/Wait self-deadlock (the caller's own task counts as in
/// flight, so the wait can never finish).
thread_local bool t_on_pool_thread = false;

}  // namespace

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads < 1) num_threads = 1;
  threads_.reserve(static_cast<std::size_t>(num_threads));
  for (int t = 0; t < num_threads; ++t) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    shutting_down_ = true;
  }
  work_available_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    MutexLock lock(mu_);
    queue_.push_back(std::move(task));
    ++in_flight_;
  }
  work_available_.notify_one();
}

void ThreadPool::Wait() {
  DBTF_CHECK(!t_on_pool_thread,
             "ThreadPool::Wait called from inside a pool task: the calling "
             "task counts as in flight, so this deadlocks. Run the wait on "
             "the driver thread.");
  MutexLock lock(mu_);
  lock.Wait(all_done_, [this] {
    mu_.AssertHeld();
    return in_flight_ == 0;
  });
}

void ThreadPool::ParallelFor(std::int64_t n,
                             const std::function<void(std::int64_t)>& fn) {
  DBTF_CHECK(!t_on_pool_thread,
             "ThreadPool::ParallelFor called from inside a pool task: its "
             "Wait would count the calling task as in flight and deadlock. "
             "Run the loop on the driver thread.");
  if (n <= 0) return;
  std::atomic<std::int64_t> next{0};
  const int workers =
      static_cast<int>(std::min<std::int64_t>(n, num_threads()));
  for (int w = 0; w < workers; ++w) {
    Submit([&next, n, &fn] {
      for (std::int64_t i = next.fetch_add(1); i < n;
           i = next.fetch_add(1)) {
        fn(i);
      }
    });
  }
  Wait();
}

void ThreadPool::WorkerLoop() {
  t_on_pool_thread = true;
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      lock.Wait(work_available_, [this] {
        mu_.AssertHeld();
        return shutting_down_ || !queue_.empty();
      });
      if (queue_.empty()) {
        if (shutting_down_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
    {
      MutexLock lock(mu_);
      if (--in_flight_ == 0) all_done_.notify_all();
    }
  }
}

}  // namespace dbtf
