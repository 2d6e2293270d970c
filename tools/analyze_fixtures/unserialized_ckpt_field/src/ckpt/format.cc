// Fixture: the codec pair forgot best_error.
#include "ckpt/checkpoint.h"

namespace dbtf {
namespace ckpt_format {

std::vector<std::uint8_t> SerializeRun(const CheckpointState& state) {
  std::vector<std::uint8_t> bytes;
  Append(&bytes, state.config_fingerprint);
  Append(&bytes, state.progress.iteration);
  return bytes;
}

bool ParseRun(const std::vector<std::uint8_t>& bytes, CheckpointState* state) {
  Cursor r(bytes);
  state->config_fingerprint = r.TakeU64();
  state->progress.iteration = r.TakeI64();
  return r.AtEnd();
}

}  // namespace ckpt_format
}  // namespace dbtf
