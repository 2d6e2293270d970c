#ifndef DBTF_SERVE_SERVE_ENGINE_H_
#define DBTF_SERVE_SERVE_ENGINE_H_

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/bitops.h"
#include "common/status.h"
#include "dbtf/engine.h"
#include "dist/cluster.h"
#include "tensor/bit_matrix.h"
#include "tensor/unfold.h"

namespace dbtf {

/// One column replacement of one factor. A batch of these is applied as a
/// single FactorDelta broadcast, so every worker observes either all of the
/// batch's columns (across all touched slots) or none of them.
struct ServeColumnUpdate {
  int slot = 0;               ///< factor (A = 0, B = 1, C = 2)
  std::int64_t column = 0;    ///< concept index in [0, rank)
  std::vector<BitWord> bits;  ///< packed new column, WordsForBits(dim) words
};

/// Counters the serving engine keeps about its own traffic, for the CLI
/// summary line and the bench harness. The wire-byte ledger itself lives on
/// the cluster (CommStats' query lane) — these only count decisions the
/// engine made.
struct ServeStats {
  std::int64_t queries_answered = 0;
  std::int64_t failovers = 0;       ///< queries re-routed past a lost shard
  std::int64_t rebroadcasts = 0;    ///< recovery factor rebroadcasts
  std::int64_t updates_applied = 0; ///< committed ApplyUpdate batches
};

/// Sharded query engine over the bit-packed factors resident on the
/// cluster's workers.
///
/// The engine is the driver side of the serving plane: it keeps the
/// authoritative factor copies (the tests' oracle), ships them to every
/// worker through FactorBroadcastState, the planner the factorization path
/// uses (apply_only: the factor-update machinery is never built), and
/// routes each query to machine (shard key mod M). Factors are replicated
/// by broadcast, so *any* machine can answer *any* query; when the owner is
/// lost the query fails over to the next surviving machine in ring order,
/// after a catch-up broadcast (the serving-plane mirror of the
/// factorization path's reprovision-then-retry).
///
/// Consistency: updates and queries both hold the per-machine delivery lock
/// in Cluster, so a read concurrent with an ApplyUpdate batch observes
/// either the entire batch's generations or none of them. Every
/// QueryResponse carries the (A, B, C) generation triple it was computed
/// against, and Route returns only answers at the committed triple.
///
/// Like Session, the engine is single-threaded from the caller's
/// perspective: do not issue two calls concurrently.
class ServeEngine {
 public:
  /// Validates the factor set (equal column counts, rank in [1, 64] — the
  /// one-word rank cap the whole runtime shares) and takes ownership of the
  /// driver-side copies. The cluster must outlive the engine and must have
  /// worker endpoints attached (dist/provision.h) before Load().
  static Result<std::unique_ptr<ServeEngine>> Create(Cluster* cluster,
                                                     BitMatrix a, BitMatrix b,
                                                     BitMatrix c);

  /// Ships all three factors to every worker at fresh generations. Must
  /// complete before the first query; idempotent (re-delivery of an already-
  /// resident generation is a no-op at the workers).
  Status Load();

  /// Membership: is cell (i, j, k) set in the Boolean reconstruction, and
  /// which rank-1 blocks explain it (response->member / explain_mask).
  Status Membership(std::int64_t i, std::int64_t j, std::int64_t k,
                    QueryResponse* response);

  /// Fiber: materialize the mode-`free_mode` fiber through the two fixed
  /// coordinates as packed bits (response->fiber_bits / fiber_len). The
  /// fixed pair follows the cyclic mode order: mode 1 fixes (j, k), mode 2
  /// fixes (k, i), mode 3 fixes (i, j).
  Status Fiber(Mode free_mode, std::int64_t fixed_first,
               std::int64_t fixed_second, QueryResponse* response);

  /// Top-R concepts: rank factor-`mode` columns by overlap with the packed
  /// query slice (`slice_len` must equal that mode's dimension) and return
  /// the best `top_r` (response->concept_ids / concept_scores).
  Status TopConcepts(Mode mode, std::vector<BitWord> slice_bits,
                     std::int64_t slice_len, std::int64_t top_r,
                     QueryResponse* response);

  /// Applies a batch of column replacements to the driver copies and ships
  /// the changed slots to every worker as one planned broadcast, so no
  /// worker ever serves a torn batch; a batch that changes no bit sends
  /// nothing. Commits when the broadcast reached every surviving machine. A
  /// failed broadcast is followed by the catch-up message, so every machine
  /// converges on the committed generations.
  Status ApplyUpdate(const std::vector<ServeColumnUpdate>& updates);

  /// Generation triple (A, B, C) currently committed to the workers.
  std::array<std::uint64_t, 3> generations() const {
    return broadcast_.generations();
  }

  /// Driver-side authoritative factor copy — the tests' dense oracle.
  const BitMatrix& factor(int slot) const;

  std::int64_t rank() const { return rank_; }
  /// Dimension of factor `slot` (I, J or K).
  std::int64_t dim(int slot) const { return factor(slot).rows(); }

  const ServeStats& stats() const { return stats_; }

 private:
  ServeEngine(Cluster* cluster, BitMatrix a, BitMatrix b, BitMatrix c);

  /// Shard key -> owner machine, then ring-order failover with one
  /// catch-up broadcast per newly suspected machine. Assigns the request id.
  Status Route(QueryRequest msg, QueryResponse* response);

  /// Asks `machine` for an answer at the committed generations, catching it
  /// up and asking once more on a miss; a second miss is kUnavailable.
  Status AskCommitted(int machine, const QueryRequest& msg,
                      QueryResponse* response);

  /// Owner of `msg`'s shard key. Cell-bearing queries shard by coordinate
  /// sum (repeat reads of a cell hit the same replica); top-R queries scan
  /// every concept anyway, so they shard by request id (round-robin).
  int ShardOf(const QueryRequest& msg) const;

  /// Ships the planner's catch-up message: a no-op for machines already at
  /// the committed generations. Tolerates machine loss while one survives.
  Status Rebroadcast();

  Cluster* cluster_;
  /// The only driver copy (dim() must work before Load); the planner's
  /// shadows hold what the workers were committed to, as in Session.
  std::array<BitMatrix, 3> factors_;
  const FactorBroadcastState::SlotContent content_{
      {&factors_[0], &factors_[1], &factors_[2]}};
  FactorBroadcastState broadcast_;
  std::int64_t rank_ = 0;
  bool loaded_ = false;
  std::uint64_t next_id_ = 0;
  /// Machines whose last delivery failed retryably. The first failure
  /// triggers the survivor catch-up rebroadcast; repeats skip it until the
  /// machine answers again.
  std::vector<bool> suspected_;
  ServeStats stats_;
};

}  // namespace dbtf

#endif  // DBTF_SERVE_SERVE_ENGINE_H_
