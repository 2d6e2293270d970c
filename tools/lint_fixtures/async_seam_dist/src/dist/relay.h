// Fixture: ad-hoc asynchrony inside the distributed runtime itself. src/dist/
// gets no exemption: deliveries run under Cluster's per-machine delivery
// locks, and a relay that hands replies over through a future or a condvar
// would deliver outside them.
#ifndef FIXTURE_RELAY_H_
#define FIXTURE_RELAY_H_

#include <condition_variable>
#include <future>

namespace dbtf {

class Relay {
 public:
  std::future<int> Reply() { return reply_.get_future(); }

 private:
  std::promise<int> reply_;
  std::condition_variable arrived_;
};

}  // namespace dbtf

#endif  // FIXTURE_RELAY_H_
