// Fixture: one Serialize*/Parse* pair covering the whole mini schema.
#include "ckpt/checkpoint.h"

namespace dbtf {
namespace ckpt_format {

std::vector<std::uint8_t> SerializeRun(const CheckpointState& state) {
  std::vector<std::uint8_t> bytes;
  Append(&bytes, state.config_fingerprint);
  Append(&bytes, state.progress.iteration);
  Append(&bytes, state.progress.best_error);
  Append(&bytes, state.shadow.initialized);
  Append(&bytes, state.shadow.generation);
  Append(&bytes, state.shadow.content);
  return bytes;
}

bool ParseRun(const std::vector<std::uint8_t>& bytes, CheckpointState* state) {
  Cursor r(bytes);
  state->config_fingerprint = r.TakeU64();
  state->progress.iteration = r.TakeI64();
  state->progress.best_error = r.TakeDouble();
  state->shadow.initialized = r.TakeBool();
  state->shadow.generation = r.TakeI64();
  state->shadow.content = r.TakeWords();
  return r.AtEnd();
}

}  // namespace ckpt_format
}  // namespace dbtf
