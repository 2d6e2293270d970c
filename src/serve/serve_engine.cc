#include "serve/serve_engine.h"

#include <utility>

#include "common/bitspan.h"
#include "common/check.h"
#include "common/rank.h"
#include "dbtf/engine.h"
#include "dist/messages.h"

namespace dbtf {
namespace {

/// Serving broadcasts never drive a factor update, but FactorDelta's codec
/// still validates the update-path header fields — fill them with the
/// runtime's defaults.
FactorDelta ApplyOnlyDelta() {
  FactorDelta msg;
  msg.apply_only = true;
  msg.mode = Mode::kOne;
  msg.mf_slot = 2;
  msg.ms_slot = 1;
  return msg;
}

}  // namespace

Result<std::unique_ptr<ServeEngine>> ServeEngine::Create(Cluster* cluster,
                                                         BitMatrix a,
                                                         BitMatrix b,
                                                         BitMatrix c) {
  if (cluster == nullptr) {
    return Status::InvalidArgument("serve engine needs a cluster");
  }
  const std::int64_t rank = a.cols();
  DBTF_RETURN_IF_ERROR(ValidateRank(rank, "serving rank"));
  if (b.cols() != rank || c.cols() != rank) {
    return Status::InvalidArgument(
        "factor matrices disagree on the rank (column counts differ)");
  }
  if (a.rows() < 1 || b.rows() < 1 || c.rows() < 1) {
    return Status::InvalidArgument("factor matrices must not be empty");
  }
  return std::unique_ptr<ServeEngine>(
      new ServeEngine(cluster, std::move(a), std::move(b), std::move(c)));
}

ServeEngine::ServeEngine(Cluster* cluster, BitMatrix a, BitMatrix b,
                         BitMatrix c)
    : cluster_(cluster),
      factors_{{std::move(a), std::move(b), std::move(c)}},
      rank_(factors_[0].cols()),
      suspected_(static_cast<std::size_t>(cluster->num_machines()), false) {}

const BitMatrix& ServeEngine::factor(int slot) const {
  DBTF_CHECK_LE(0, slot);
  DBTF_CHECK_LT(slot, 3);
  return factors_[static_cast<std::size_t>(slot)];
}

Status ServeEngine::Rebroadcast() {
  FactorDelta msg = ApplyOnlyDelta();
  for (int slot = 0; slot < 3; ++slot) {
    const BitMatrix& m = factors_[static_cast<std::size_t>(slot)];
    MatrixDelta d;
    d.slot = slot;
    d.generation = generations_[static_cast<std::size_t>(slot)];
    d.full = true;
    d.dense = m;
    d.rows = m.rows();
    d.cols = m.cols();
    msg.updates.push_back(std::move(d));
  }
  ++stats_.rebroadcasts;
  const Status status = cluster_->BroadcastFactors(std::move(msg));
  if (status.ok()) return status;
  // A machine lost mid-broadcast surfaces as retryable; the fan-out still
  // delivered to every survivor (each machine's delivery is independent),
  // so serving continues as long as anyone is left to answer.
  if (IsRetryable(status.code()) && cluster_->num_attached_workers() > 0) {
    return Status::OK();
  }
  return status;
}

Status ServeEngine::Load() {
  if (!loaded_) {
    for (std::uint64_t& g : generations_) g = NextFactorGeneration();
  }
  DBTF_RETURN_IF_ERROR(Rebroadcast());
  loaded_ = true;
  return Status::OK();
}

int ServeEngine::ShardOf(const QueryRequest& msg) const {
  std::int64_t key = 0;
  switch (msg.kind) {
    case QueryKind::kMembership:
    case QueryKind::kFiber:
      key = msg.i + msg.j + msg.k;
      break;
    case QueryKind::kTopConcepts:
      key = static_cast<std::int64_t>(msg.id);
      break;
  }
  return cluster_->config().placement
             ? cluster_->config().placement->Place(key,
                                                   cluster_->num_machines())
             : cluster_->OwnerOf(key);
}

Status ServeEngine::Route(QueryRequest msg, QueryResponse* response) {
  DBTF_CHECK(response != nullptr);
  if (!loaded_) {
    return Status::FailedPrecondition(
        "serve engine not loaded; call Load() before querying");
  }
  msg.id = ++next_id_;
  const int machines = cluster_->num_machines();
  const int owner = ShardOf(msg);
  Status last = Status::OK();
  for (int hop = 0; hop < machines; ++hop) {
    const int machine = (owner + hop) % machines;
    const std::size_t m = static_cast<std::size_t>(machine);
    const Status status = cluster_->QueryWorker(machine, msg, response);
    if (status.ok()) {
      suspected_[m] = false;
      ++stats_.queries_answered;
      if (hop > 0) ++stats_.failovers;
      return status;
    }
    if (status.code() == StatusCode::kFailedPrecondition) {
      // The machine is alive but does not hold the factors (e.g. it was
      // attached after Load). Catch it up once, then re-ask it.
      DBTF_RETURN_IF_ERROR(Rebroadcast());
      const Status retried = cluster_->QueryWorker(machine, msg, response);
      if (retried.ok()) {
        suspected_[m] = false;
        ++stats_.queries_answered;
        if (hop > 0) ++stats_.failovers;
        return retried;
      }
      if (!IsRetryable(retried.code())) return retried;
      last = retried;
      continue;
    }
    if (!IsRetryable(status.code())) return status;
    // The shard owner is lost (injected crash or a dead worker process).
    // The first time a machine goes dark, catch the survivors up —
    // idempotent: a generation match at a current machine applies nothing —
    // then walk the ring to the next one. Machines already suspected skip
    // the re-ship: a permanently dead shard owner would otherwise charge a
    // full factor broadcast to every query it should have answered.
    last = status;
    if (!suspected_[m]) {
      suspected_[m] = true;
      DBTF_RETURN_IF_ERROR(Rebroadcast());
    }
  }
  return last.ok() ? Status::FailedPrecondition(
                         "no machine was able to answer the query")
                   : last;
}

Status ServeEngine::Membership(std::int64_t i, std::int64_t j, std::int64_t k,
                               QueryResponse* response) {
  if (i < 0 || i >= dim(0) || j < 0 || j >= dim(1) || k < 0 || k >= dim(2)) {
    return Status::InvalidArgument(
        "membership coordinates outside the tensor dimensions");
  }
  QueryRequest msg;
  msg.kind = QueryKind::kMembership;
  msg.i = i;
  msg.j = j;
  msg.k = k;
  return Route(std::move(msg), response);
}

Status ServeEngine::Fiber(Mode free_mode, std::int64_t fixed_first,
                          std::int64_t fixed_second, QueryResponse* response) {
  QueryRequest msg;
  msg.kind = QueryKind::kFiber;
  msg.mode = free_mode;
  // The fixed pair rides the coordinate fields in cyclic mode order — the
  // same convention the worker (and the wire doc in dist/messages.h) uses.
  switch (free_mode) {
    case Mode::kOne:
      if (fixed_first < 0 || fixed_first >= dim(1) || fixed_second < 0 ||
          fixed_second >= dim(2)) {
        return Status::InvalidArgument("fiber coordinates out of range");
      }
      msg.j = fixed_first;
      msg.k = fixed_second;
      break;
    case Mode::kTwo:
      if (fixed_first < 0 || fixed_first >= dim(2) || fixed_second < 0 ||
          fixed_second >= dim(0)) {
        return Status::InvalidArgument("fiber coordinates out of range");
      }
      msg.k = fixed_first;
      msg.i = fixed_second;
      break;
    case Mode::kThree:
      if (fixed_first < 0 || fixed_first >= dim(0) || fixed_second < 0 ||
          fixed_second >= dim(1)) {
        return Status::InvalidArgument("fiber coordinates out of range");
      }
      msg.i = fixed_first;
      msg.j = fixed_second;
      break;
  }
  return Route(std::move(msg), response);
}

Status ServeEngine::TopConcepts(Mode mode, std::vector<BitWord> slice_bits,
                                std::int64_t slice_len, std::int64_t top_r,
                                QueryResponse* response) {
  const int slot = static_cast<int>(mode) - 1;
  if (slice_len != dim(slot)) {
    return Status::InvalidArgument(
        "query slice length does not match the factor dimension");
  }
  if (slice_bits.size() != WordsForBits(static_cast<std::size_t>(slice_len))) {
    return Status::InvalidArgument(
        "query slice word count does not match its length");
  }
  if (!TailPaddingZero(
          BitSpan(slice_bits.data(), static_cast<std::size_t>(slice_len)))) {
    return Status::InvalidArgument("query slice padding bits must be zero");
  }
  if (top_r < 0 || top_r > kMaxRank) {
    return Status::InvalidArgument("top_r must be in [0, 64]");
  }
  QueryRequest msg;
  msg.kind = QueryKind::kTopConcepts;
  msg.mode = mode;
  msg.slice_bits = std::move(slice_bits);
  msg.slice_len = slice_len;
  msg.top_r = top_r;
  return Route(std::move(msg), response);
}

Status ServeEngine::ApplyUpdate(const std::vector<ServeColumnUpdate>& updates) {
  if (!loaded_) {
    return Status::FailedPrecondition(
        "serve engine not loaded; call Load() before updating");
  }
  if (updates.empty()) return Status::OK();
  for (const ServeColumnUpdate& u : updates) {
    if (u.slot < 0 || u.slot >= 3) {
      return Status::InvalidArgument("update slot must be in [0, 3)");
    }
    if (u.column < 0 || u.column >= rank_) {
      return Status::InvalidArgument("update column outside the rank");
    }
    const std::size_t rows = static_cast<std::size_t>(dim(u.slot));
    if (u.bits.size() != WordsForBits(rows)) {
      return Status::InvalidArgument(
          "update column word count does not match the factor dimension");
    }
    if (!TailPaddingZero(BitSpan(u.bits.data(), rows))) {
      return Status::InvalidArgument("update column padding bits must be zero");
    }
  }

  // One MatrixDelta per touched slot, all in one FactorDelta: the broadcast
  // is the batch's atomicity unit at every worker.
  FactorDelta msg = ApplyOnlyDelta();
  std::array<std::uint64_t, 3> next = generations_;
  std::array<int, 3> delta_index{{-1, -1, -1}};
  for (const ServeColumnUpdate& u : updates) {
    const std::size_t slot = static_cast<std::size_t>(u.slot);
    if (delta_index[slot] < 0) {
      delta_index[slot] = static_cast<int>(msg.updates.size());
      MatrixDelta d;
      d.slot = u.slot;
      d.generation = NextFactorGeneration();
      d.base_generation = generations_[slot];
      d.full = false;
      d.rows = factors_[slot].rows();
      d.cols = rank_;
      msg.updates.push_back(std::move(d));
      next[slot] = msg.updates.back().generation;
    }
    MatrixDelta& d = msg.updates[static_cast<std::size_t>(delta_index[slot])];
    d.columns.push_back(u.column);
    d.column_bits.push_back(u.bits);
  }

  const Status status = cluster_->BroadcastFactors(std::move(msg));
  if (!status.ok() &&
      !(IsRetryable(status.code()) && cluster_->num_attached_workers() > 0)) {
    return status;  // nothing committed: driver copies and workers agree
  }
  // Committed on every survivor — commit the driver copies to match.
  for (const ServeColumnUpdate& u : updates) {
    BitMatrix& m = factors_[static_cast<std::size_t>(u.slot)];
    const BitSpan column(u.bits.data(), static_cast<std::size_t>(m.rows()));
    for (std::int64_t r = 0; r < m.rows(); ++r) {
      m.Set(r, u.column, column.Get(static_cast<std::size_t>(r)));
    }
  }
  generations_ = next;
  ++stats_.updates_applied;
  return Status::OK();
}

}  // namespace dbtf
