#ifndef DBTF_DIST_MESSAGES_H_
#define DBTF_DIST_MESSAGES_H_

#include <cstdint>
#include <vector>

#include "common/bitops.h"
#include "dbtf/partition.h"
#include "tensor/bit_matrix.h"
#include "tensor/unfold.h"

namespace dbtf {

// Typed wire messages of the driver/worker runtime. Every payload that
// crosses the driver/worker boundary is one of these value types: each owns
// its bytes outright (no driver-owned pointers), so the same message object
// can be delivered to an in-process worker, serialized onto a socket
// (dist/transport/wire.h), or re-delivered by the retry policy without any
// lifetime coupling to the driver's state. Each request is routed through
// exactly one Cluster primitive, so the Lemma 6–7 ledger charging happens at
// the routing layer instead of at call sites:
//
//   FactorDelta          -> Cluster::BroadcastFactors   (charged per machine)
//   RunUpdateColumn +    -> Cluster::RunColumn          (one fan-out per
//   CollectErrorsRequest    column: the dispatch is priced at zero, as the
//                           paper's shuffle analysis prices task dispatch;
//                           the response bytes are charged once, summed
//                           over machines)
//   StorePartitionRequest / ListPartitions -> provisioning seam
//                           (dist/provision.h), charged there when the move
//                           is a recovery re-provision
//   QueryRequest         -> Cluster::QueryWorker        (point-to-point to
//                           the shard owner; request + response bytes
//                           charged as one query on the ledger)

/// One factor matrix crossing the wire, either as a full replacement or as
/// the set of columns that changed since the generation the workers already
/// hold. Generations are globally unique (drawn from one process-wide
/// counter on the driver), so an equality match is proof that the worker's
/// cached copy is byte-identical to the driver's — including across
/// Factorize runs on session-resident workers.
struct MatrixDelta {
  int slot = 0;  ///< worker-side cache slot (factor index, 0..2)
  std::uint64_t generation = 0;       ///< content identity after applying
  std::uint64_t base_generation = 0;  ///< column deltas: required base
  bool full = true;         ///< full replacement vs changed-column delta
  BitMatrix dense;          ///< full payload (owned; empty for deltas)
  std::int64_t rows = 0;    ///< target shape (checked on apply)
  std::int64_t cols = 0;
  std::vector<std::int64_t> columns;  ///< changed column indexes (delta)
  std::vector<std::vector<BitWord>> column_bits;  ///< packed bits per column

  /// Packed bytes one machine receives: the full matrix, or per changed
  /// column an 8-byte index plus the packed column bits.
  std::int64_t WireBytes() const;
};

/// Broadcast payload of one factor update (Lemma 7). Instead of shipping
/// three full matrices every update, the driver ships only the stale
/// Khatri-Rao operands — full on first contact, changed columns afterwards —
/// tagged with generation counters. Workers keep the operand matrices
/// resident and rebuild derived state (M_f row masks, M_s^T cache tables)
/// only when the cached operand's generation moves. The factor under update
/// itself never crosses the wire: workers only need its row count, and the
/// per-column row masks ride each RunUpdateColumn message.
///
/// The message is idempotent: re-delivery (recovery rebroadcast, retry after
/// a transient fault) applies nothing when generations already match, and a
/// worker holding an unexpected base generation rejects the delta with
/// kFailedPrecondition instead of corrupting its cache.
struct FactorDelta {
  Mode mode = Mode::kOne;  ///< which unfolding's factor is being updated
  std::int64_t rows = 0;   ///< rows of the factor being updated
  int mf_slot = 0;         ///< slot of M_f (shape.blocks x R operand)
  int ms_slot = 0;         ///< slot of M_s (within x R caching unit)
  int cache_group_size = 1;    ///< V of Lemma 2
  bool enable_caching = true;  ///< ablation: false recomputes every summation
  std::vector<MatrixDelta> updates;  ///< operand payloads, possibly empty

  /// Serving-path broadcasts: apply the matrix deltas and stop. The factor-
  /// update machinery (M_f row masks, M_s^T cache tables) is neither needed
  /// nor rebuilt, and the mf/ms slots need not be resident.
  bool apply_only = false;

  /// Packed bytes of all shipped updates: what one machine receives.
  std::int64_t WireBytes() const;
};

/// Driver -> workers: score both candidate values of one factor column.
/// `row_masks` is the driver's current view of the factor rows — the
/// broadcast copy plus the decisions of previous columns, which ride the
/// message exactly as Spark ships updated driver state with each task.
struct RunUpdateColumn {
  Mode mode = Mode::kOne;
  std::int64_t column = 0;               ///< c in [0, R)
  std::vector<std::uint64_t> row_masks;  ///< current factor row masks
  std::int64_t rows = 0;
};

/// Driver -> workers: ship back the per-row error sums of the column last
/// scored via RunUpdateColumn. When `want_stats` is set the workers also
/// piggyback their cache-table metrics on the response, the way Spark ships
/// task metrics with task results (the few bytes of metrics are not part of
/// the paper's ledger).
struct CollectErrorsRequest {
  Mode mode = Mode::kOne;
  std::int64_t rows = 0;
  bool want_stats = false;
};

/// Workers -> driver: one machine's (or, after reduction, all machines')
/// per-row error sums for both candidate values, plus the piggybacked cache
/// metrics. `wire_bytes` is what the payload costs on the wire — two 64-bit
/// counters per row per resident partition (Lemma 7's collect term) — summed
/// by the reduce so the driver can charge the whole fan-out as one collect.
struct CollectErrorsResponse {
  std::vector<std::int64_t> totals0;  ///< per-row error, candidate bit = 0
  std::vector<std::int64_t> totals1;  ///< per-row error, candidate bit = 1
  std::int64_t wire_bytes = 0;
  std::int64_t cache_entries = 0;
  std::int64_t cache_bytes = 0;

  /// Element-wise accumulation (the driver-side reduce). Sums commute, so
  /// the merge order across machines does not affect the result.
  void MergeFrom(const CollectErrorsResponse& other);
};

/// Driver -> one worker (provisioning seam): take ownership of partition
/// `index` of the mode-`mode` unfolding. Shipped at session build and again
/// when recovery re-provisions a lost machine's partitions onto a survivor.
struct StorePartitionRequest {
  Mode mode = Mode::kOne;
  std::int64_t index = 0;
  UnfoldShape shape{0, 0, 0};
  Partition partition;

  /// Packed bytes of the partition's block rows — what shipping it costs on
  /// the wire (the recovery ledger's re-shipment accounting).
  std::int64_t WireBytes() const;
};

/// The three query shapes the serving layer answers from resident factors.
enum class QueryKind : std::uint8_t {
  kMembership = 1,   ///< is cell (i,j,k) set, and which concepts explain it
  kFiber = 2,        ///< materialize one mode-`mode` fiber as packed bits
  kTopConcepts = 3,  ///< rank concepts by overlap with a query slice
};

/// Driver -> one worker: answer one serving query against the bit-packed
/// factors resident in the worker's broadcast cache (slots 0..2 = A, B, C).
/// Any machine holding the factors can answer any query; the engine shards
/// by PlacementPolicy for load spreading, not for data locality.
///
/// Field use by kind:
///   kMembership   i, j, k          (cell coordinates)
///   kFiber        mode, i, j       (the two fixed coordinates, in the
///                                   cyclic order of the free mode: mode 1
///                                   frees i and fixes (j, k); mode 2 frees
///                                   j and fixes (k, i); mode 3 frees k and
///                                   fixes (i, j))
///   kTopConcepts  mode, slice_bits/slice_len, top_r
///                                  (score factor-`mode` columns against the
///                                   packed query slice, return the best R)
struct QueryRequest {
  QueryKind kind = QueryKind::kMembership;
  std::uint64_t id = 0;     ///< echoed in the response (harness correlation)
  Mode mode = Mode::kOne;   ///< fiber: free mode; top-R: factor to score
  std::int64_t i = 0;
  std::int64_t j = 0;
  std::int64_t k = 0;
  std::vector<BitWord> slice_bits;  ///< top-R: packed query slice
  std::int64_t slice_len = 0;       ///< logical bits in slice_bits
  std::int64_t top_r = 0;           ///< top-R: how many concepts to return

  /// Packed request bytes (what routing one query costs on the wire).
  std::int64_t WireBytes() const;
};

/// One worker -> driver: the answer, tagged with the factor generations it
/// was computed against so the engine (and the consistency tests) can prove
/// which broadcast the read observed.
struct QueryResponse {
  std::uint64_t id = 0;      ///< echo of QueryRequest::id
  bool member = false;       ///< membership: reconstruction bit at (i,j,k)
  std::uint64_t explain_mask = 0;  ///< membership: concepts covering (i,j,k)
  std::vector<BitWord> fiber_bits;  ///< fiber: packed reconstruction
  std::int64_t fiber_len = 0;       ///< logical bits in fiber_bits
  std::vector<std::int64_t> concept_ids;      ///< top-R: ranked columns
  std::vector<std::int64_t> concept_scores;   ///< top-R: overlap popcounts
  std::vector<std::uint64_t> generations;     ///< factor generations (A,B,C)

  /// Packed response bytes (the collect side of the query's ledger charge).
  std::int64_t WireBytes() const;
};

}  // namespace dbtf

#endif  // DBTF_DIST_MESSAGES_H_
