// Fixture: ad-hoc asynchrony in driver code instead of Cluster's blocking
// routing calls.
#ifndef FIXTURE_PIPELINE_H_
#define FIXTURE_PIPELINE_H_

#include <condition_variable>
#include <future>

namespace dbtf {

class Pipeline {
 public:
  std::future<int> Launch() {
    return std::async([] { return 1; });
  }

 private:
  std::promise<int> result_;
  std::condition_variable ready_;
};

}  // namespace dbtf

#endif  // FIXTURE_PIPELINE_H_
