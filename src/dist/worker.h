#ifndef DBTF_DIST_WORKER_H_
#define DBTF_DIST_WORKER_H_

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/bitops.h"
#include "common/status.h"
#include "dbtf/cache_table.h"
#include "dbtf/partition.h"
#include "dist/messages.h"
#include "tensor/bit_matrix.h"
#include "tensor/unfold.h"

namespace dbtf {

/// One simulated machine of the distributed runtime.
///
/// A worker *owns* its slice of the three partitioned unfoldings and the
/// per-partition cache tables as private state: partitions are moved in once
/// at session build (AdoptPartition) and are reachable afterwards only
/// through the typed messages above, routed via Cluster. The driver never
/// touches partition or cache state directly — that is what enforces the
/// paper's claim that only factor matrices cross the wire (Lemmas 6–7).
///
/// Message handlers are invoked through the machine's transport endpoint
/// (dist/transport/): called directly on the routing thread by the
/// in-process endpoint, or inside a dedicated worker process by the
/// dbtf-worker server loop. Either way a worker's handlers are never invoked
/// concurrently with each other — Cluster holds the machine's delivery lock
/// around every delivery driver-side, and the socket server loop is
/// single-threaded — which is why Worker deliberately has no mutex: adding
/// one would paper over a routing bug instead of surfacing it under TSan.
class Worker {
 public:
  explicit Worker(int machine) : machine_(machine) {}

  // Not copyable and not movable: the in-process endpoint owns it as a
  // member (dist/transport/inproc.cc), so it lives at one address for its
  // whole life.
  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;
  Worker(Worker&&) = delete;
  Worker& operator=(Worker&&) = delete;

  int machine() const { return machine_; }

  /// Takes ownership of partition `index` of the mode-`mode` unfolding. The
  /// driver relinquishes the data; it lives on this machine from now on.
  /// Aborts (DBTF_CHECK) if any block violates the Lemma 3 alignment
  /// invariants — see CheckBlockInvariants in worker.cc.
  void AdoptPartition(Mode mode, std::int64_t index, Partition partition,
                      const UnfoldShape& shape);

  /// Partitions of `mode` resident on this machine.
  std::int64_t NumLocalPartitions(Mode mode) const;

  /// Global indexes of the mode-`mode` partitions resident on this machine,
  /// in adoption order. The re-provisioning seam (dist/provision.h) uses the
  /// union over surviving workers to find which partitions died with a lost
  /// machine — residency after a recovery no longer matches the placement
  /// policy, so ownership must be queried, not derived.
  std::vector<std::int64_t> LocalPartitionIndexes(Mode mode) const;

  // --- Message handlers (call via the transport endpoint only) -------------

  /// Receives a broadcast factor delta: applies each operand update to the
  /// resident factor cache (full copy or changed columns, generation-
  /// checked), then rebuilds only the derived state whose operand actually
  /// moved — M_f row masks when the M_f slot's generation changed, cache
  /// tables (Algorithm 5) when the M_s slot's generation or the cache
  /// parameters changed, plus tables for freshly adopted partitions that
  /// have none yet. Also (re)sizes the per-partition lookup scratch.
  Status Handle(const FactorDelta& msg);

  /// One column exchange: scores both candidate values of `run`'s column
  /// for every row against each local partition (Algorithm 4's inner
  /// sweep) and fills `response` with the per-row error differences summed
  /// over those partitions and — when `req` asks — the cache metrics. The
  /// sweep runs block by block and visits only the blocks whose M_f row has
  /// the column's bit: elsewhere the candidate is masked out of every key,
  /// so err1 == err0 and the block adds nothing. Only the final column
  /// (rank - 1) also sums the candidate-0 error of every block into
  /// `base_error`; every other reply carries 0 there. A column at or past
  /// the resident rank (M_f's column count at the last broadcast) fails
  /// with kInvalidArgument. Nothing about the column outlives the call.
  Status Handle(const RunUpdateColumn& run, const CollectErrorsRequest& req,
                CollectErrorsResponse* response);

  /// Answers one serving query (membership / fiber / top-R concepts) from
  /// the resident factor slots. Requires all three slots valid (shipped by a
  /// prior FactorDelta broadcast); fails with kFailedPrecondition otherwise.
  /// Fiber and top-R queries read rank-1 columns through per-slot transposed
  /// "serve views", rebuilt lazily when a slot's generation moves.
  Status Handle(const QueryRequest& msg, QueryResponse* response);

 private:
  struct LocalPartition {
    std::int64_t index;                ///< global partition index
    Partition data;                    ///< the adopted slice
    std::unique_ptr<CacheTable> cache; ///< rebuilt when M_s moves
    std::vector<BitWord> scratch;      ///< multi-group cache-lookup scratch
  };

  /// One machine-resident factor matrix, identified by its generation. The
  /// driver's deltas move it from generation to generation; derived state
  /// (masks, caches) records which generation it was built from.
  struct CachedFactor {
    BitMatrix matrix;
    std::uint64_t generation = 0;
    bool valid = false;  ///< false until the first full replacement lands
  };

  /// Per-mode slice of the runtime state. Updates for different modes never
  /// interleave inside one factor update, but the derived state of all three
  /// modes stays resident between updates; the built_* generations say which
  /// operand content it reflects, so an unchanged operand costs nothing.
  struct ModeState {
    UnfoldShape shape{0, 0, 0};
    std::vector<LocalPartition> partitions;
    std::vector<std::uint64_t> mf_masks;  ///< row masks of the cached M_f
    std::int64_t rows = 0;                ///< rows of the factor under update
    std::int64_t rank = 0;                ///< columns of the cached M_f
    std::uint64_t built_mf_generation = 0;   ///< M_f gen of mf_masks
    std::uint64_t built_ms_generation = 0;   ///< M_s gen of the cache tables
    int built_cache_group_size = -1;         ///< V the tables were built with
    bool built_caching = false;              ///< caching flag of the tables
  };

  ModeState& state(Mode mode) {
    return modes_[static_cast<std::size_t>(mode) - 1];
  }
  const ModeState& state(Mode mode) const {
    return modes_[static_cast<std::size_t>(mode) - 1];
  }

  /// Transposed copy of one factor slot (rank x rows: row r is concept r's
  /// membership over that mode), the layout fiber and top-R queries consume
  /// as whole BitSpan rows. Tagged with the factor generation it was built
  /// from so updates invalidate it lazily.
  struct ServeView {
    BitMatrix transposed;
    std::uint64_t built_generation = 0;
    bool valid = false;
  };

  /// Applies one operand update to `factors_[d.slot]`. Idempotent: matching
  /// generations apply nothing; a column delta against the wrong base is
  /// rejected with kFailedPrecondition.
  Status ApplyMatrixDelta(const MatrixDelta& d);

  /// Returns the up-to-date serve view of factor slot `slot`, transposing
  /// the cached factor if its generation moved since the last build.
  const BitMatrix& ServeTransposed(int slot);

  int machine_;
  std::array<ModeState, 3> modes_;
  std::array<CachedFactor, 3> factors_;  ///< machine-resident operand slots
  std::array<ServeView, 3> serve_views_;  ///< lazy transposes for serving
};

}  // namespace dbtf

#endif  // DBTF_DIST_WORKER_H_
