#include "serve/workload.h"

#include <cmath>
#include <utility>

#include "common/check.h"
#include "common/rank.h"

namespace dbtf {

Result<SkewKind> ParseSkewKind(const std::string& name) {
  if (name == "uniform") return SkewKind::kUniform;
  if (name == "normal") return SkewKind::kNormal;
  if (name == "lognormal") return SkewKind::kLognormal;
  if (name == "weblog") return SkewKind::kWeblog;
  return Status::InvalidArgument(
      "unknown skew '" + name +
      "' (expected uniform, normal, lognormal, or weblog)");
}

const char* SkewKindName(SkewKind skew) {
  switch (skew) {
    case SkewKind::kUniform:
      return "uniform";
    case SkewKind::kNormal:
      return "normal";
    case SkewKind::kLognormal:
      return "lognormal";
    case SkewKind::kWeblog:
      return "weblog";
  }
  return "unknown";
}

Status WorkloadMix::Validate() const {
  if (membership < 0.0 || fiber < 0.0 || top < 0.0 || update < 0.0) {
    return Status::InvalidArgument("workload ratios must be non-negative");
  }
  if (!(Total() > 0.0) || !std::isfinite(Total())) {
    return Status::InvalidArgument(
        "workload ratios must sum to a positive finite total");
  }
  return Status::OK();
}

Status WorkloadOptions::Validate() const {
  DBTF_RETURN_IF_ERROR(mix.Validate());
  for (const std::int64_t d : dims) {
    if (d < 1) {
      return Status::InvalidArgument("workload dimensions must be >= 1");
    }
  }
  DBTF_RETURN_IF_ERROR(ValidateRank(rank, "workload rank"));
  if (top_r < 0 || top_r > kMaxRank) {
    return Status::InvalidArgument("top_r must be in [0, 64]");
  }
  return Status::OK();
}

WorkloadGenerator::WorkloadGenerator(const WorkloadOptions& options)
    : options_(options), rng_(options.seed) {
  DBTF_CHECK(options.Validate().ok());
}

double WorkloadGenerator::NextGaussian() {
  // Box–Muller on the repo's own uniforms. Clamping away u == 0 keeps the
  // log argument positive; the slight truncation is irrelevant for a
  // workload skew.
  const double u = std::max(rng_.NextDouble(), 0x1.0p-53);
  const double v = rng_.NextDouble();
  return std::sqrt(-2.0 * std::log(u)) *
         std::cos(2.0 * 3.14159265358979323846 * v);
}

std::int64_t WorkloadGenerator::SkewedIndex(std::int64_t n) {
  DBTF_CHECK_LT(0, n);
  double x = 0.0;
  switch (options_.skew) {
    case SkewKind::kUniform:
      return static_cast<std::int64_t>(
          rng_.NextBounded(static_cast<std::uint64_t>(n)));
    case SkewKind::kNormal:
      // Centered on the middle of the key space, sd an eighth of it.
      x = 0.5 * static_cast<double>(n) +
          NextGaussian() * (static_cast<double>(n) / 8.0);
      break;
    case SkewKind::kLognormal:
      // Mass near the low keys with a long tail across the range.
      x = std::exp(NextGaussian() * 0.5) * (static_cast<double>(n) / 4.0);
      break;
    case SkewKind::kWeblog:
      // Power-law head: u^4 concentrates most draws on the smallest keys,
      // the web-log access pattern.
      x = std::pow(rng_.NextDouble(), 4.0) * static_cast<double>(n);
      break;
  }
  std::int64_t index = static_cast<std::int64_t>(x);
  if (index < 0) index = 0;
  if (index >= n) index = n - 1;
  return index;
}

ServeOp WorkloadGenerator::Next() {
  ServeOp op;
  const double pick = rng_.NextDouble() * options_.mix.Total();
  const WorkloadMix& mix = options_.mix;
  if (pick < mix.membership) {
    op.kind = ServeOpKind::kMembership;
    op.i = SkewedIndex(options_.dims[0]);
    op.j = SkewedIndex(options_.dims[1]);
    op.k = SkewedIndex(options_.dims[2]);
    return op;
  }
  if (pick < mix.membership + mix.fiber) {
    op.kind = ServeOpKind::kFiber;
    const int free_mode = static_cast<int>(rng_.NextBounded(3));
    op.mode = static_cast<Mode>(free_mode + 1);
    // The fixed pair follows the cyclic mode order (ServeEngine::Fiber):
    // mode 1 fixes (J, K), mode 2 fixes (K, I), mode 3 fixes (I, J).
    op.i = SkewedIndex(options_.dims[(free_mode + 1) % 3]);
    op.j = SkewedIndex(options_.dims[(free_mode + 2) % 3]);
    return op;
  }
  if (pick < mix.membership + mix.fiber + mix.top) {
    op.kind = ServeOpKind::kTopConcepts;
    const int slot = static_cast<int>(rng_.NextBounded(3));
    op.mode = static_cast<Mode>(slot + 1);
    op.slice_len = options_.dims[slot];
    op.slice_bits.resize(
        WordsForBits(static_cast<std::size_t>(op.slice_len)), 0);
    for (BitWord& w : op.slice_bits) w = rng_.NextUint64();
    // Zero the padding past slice_len — wire codecs and the engine both
    // reject set padding bits.
    const std::size_t tail = static_cast<std::size_t>(op.slice_len) % 64;
    if (tail != 0) op.slice_bits.back() &= (BitWord{1} << tail) - 1;
    op.top_r = options_.top_r;
    return op;
  }
  op.kind = ServeOpKind::kUpdate;
  op.update.slot = static_cast<int>(rng_.NextBounded(3));
  op.update.column = static_cast<std::int64_t>(
      rng_.NextBounded(static_cast<std::uint64_t>(options_.rank)));
  const std::int64_t rows = options_.dims[op.update.slot];
  op.update.bits.resize(WordsForBits(static_cast<std::size_t>(rows)), 0);
  for (BitWord& w : op.update.bits) w = rng_.NextUint64();
  const std::size_t tail = static_cast<std::size_t>(rows) % 64;
  if (tail != 0) op.update.bits.back() &= (BitWord{1} << tail) - 1;
  return op;
}

Status RunOp(ServeEngine* engine, const ServeOp& op, QueryResponse* response) {
  DBTF_CHECK(engine != nullptr);
  switch (op.kind) {
    case ServeOpKind::kMembership:
      return engine->Membership(op.i, op.j, op.k, response);
    case ServeOpKind::kFiber:
      return engine->Fiber(op.mode, op.i, op.j, response);
    case ServeOpKind::kTopConcepts:
      return engine->TopConcepts(op.mode, op.slice_bits, op.slice_len,
                                 op.top_r, response);
    case ServeOpKind::kUpdate:
      return engine->ApplyUpdate({op.update});
  }
  return Status::InvalidArgument("unknown serve operation kind");
}

}  // namespace dbtf
