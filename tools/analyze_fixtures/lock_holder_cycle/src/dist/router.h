// Fixture: a Lease holds one of the router's lane locks for its lifetime
// (a std::optional<MutexLock> emplaced by its constructor), and Charge
// takes the router's mu_ under it. Reserve constructs a Lease while holding
// mu_ — a lane->mu->lane cycle that only the lock-holder idiom reveals.
#ifndef FIXTURE_DIST_ROUTER_H_
#define FIXTURE_DIST_ROUTER_H_

#include <optional>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace dbtf {

class Router;

class Lease {
 public:
  Lease(Router& router, int lane);
  void Charge();

 private:
  Router& router_;
  std::optional<MutexLock> lock_;
};

class Router {
 public:
  void Reserve() {
    MutexLock lock(mu_);
    Lease(*this, 0).Charge();
  }

  void Tally() {
    MutexLock lock(mu_);
    charges_ += 1;
  }

  std::vector<Mutex> lanes_;

 private:
  Mutex mu_;
  int charges_ DBTF_GUARDED_BY(mu_) = 0;
};

inline Lease::Lease(Router& router, int lane) : router_(router) {
  lock_.emplace(router.lanes_[lane]);
}

inline void Lease::Charge() { router_.Tally(); }

}  // namespace dbtf

#endif  // FIXTURE_DIST_ROUTER_H_
