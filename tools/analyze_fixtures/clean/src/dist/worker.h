// Fixture: locks are always taken in the same order (a before b) and every
// guarded member is annotated, so lock-order and guarded-by stay quiet.
#ifndef FIXTURE_DIST_WORKER_H_
#define FIXTURE_DIST_WORKER_H_

#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace dbtf {

class Worker {
 public:
  void Step() {
    MutexLock outer(mu_a_);
    MutexLock inner(mu_b_);
    count_ += 1;
  }

  void Record(int value) {
    MutexLock lock(mu_b_);
    values_.push_back(value);
  }

 private:
  Mutex mu_a_;
  Mutex mu_b_;
  int count_ DBTF_GUARDED_BY(mu_a_) = 0;
  std::vector<int> values_ DBTF_GUARDED_BY(mu_b_);
};

}  // namespace dbtf

#endif  // FIXTURE_DIST_WORKER_H_
