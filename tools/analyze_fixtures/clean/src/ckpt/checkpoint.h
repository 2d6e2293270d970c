// Fixture: a miniature checkpoint schema, with an embedded progress struct,
// that the codecs cover field by field — the ckpt-coverage rule must pass
// this tree with zero findings.
#ifndef FIXTURE_CKPT_CHECKPOINT_H_
#define FIXTURE_CKPT_CHECKPOINT_H_

#include <cstdint>
#include <vector>

namespace dbtf {

struct FactorShadowSnapshot {
  bool initialized = false;
  std::int64_t generation = 0;
  std::vector<std::uint64_t> content;
};

struct RunProgress {
  std::int64_t iteration = 0;
  double best_error = 0.0;
};

struct CheckpointState {
  std::uint64_t config_fingerprint = 0;
  RunProgress progress;
  FactorShadowSnapshot shadow;
};

}  // namespace dbtf

#endif  // FIXTURE_CKPT_CHECKPOINT_H_
