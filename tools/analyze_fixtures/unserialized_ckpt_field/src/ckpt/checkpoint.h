// Fixture: RunProgress::best_error, a field of a struct CheckpointState
// embeds, is never serialized or parsed by a blob codec — a snapshot would
// silently restore it to its default. The ckpt-coverage rule must flag the
// field against both the Serialize* and the Parse* consumer.
#ifndef FIXTURE_CKPT_CHECKPOINT_H_
#define FIXTURE_CKPT_CHECKPOINT_H_

#include <cstdint>

namespace dbtf {

struct RunProgress {
  std::int64_t iteration = 0;
  double best_error = 0.0;
};

struct CheckpointState {
  std::uint64_t config_fingerprint = 0;
  RunProgress progress;
};

}  // namespace dbtf

#endif  // FIXTURE_CKPT_CHECKPOINT_H_
