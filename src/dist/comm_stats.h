#ifndef DBTF_DIST_COMM_STATS_H_
#define DBTF_DIST_COMM_STATS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>

#include "common/fields.h"

namespace dbtf {

/// Snapshot of the communication ledger.
struct CommSnapshot {
  std::int64_t shuffle_bytes = 0;    ///< one-off partitioning of unfoldings
  std::int64_t broadcast_bytes = 0;  ///< factor matrices sent to machines
  std::int64_t collect_bytes = 0;    ///< per-column errors sent to the driver
  std::int64_t query_bytes = 0;      ///< serving queries, request + response
  std::int64_t shuffle_events = 0;
  std::int64_t broadcast_events = 0;
  std::int64_t collect_events = 0;
  std::int64_t query_events = 0;

  std::int64_t TotalBytes() const {
    return shuffle_bytes + broadcast_bytes + collect_bytes + query_bytes;
  }

  /// Field-wise difference this - begin, where `begin` is an earlier
  /// snapshot of the same ledger: the traffic between the two snapshots.
  CommSnapshot Since(const CommSnapshot& begin) const;

  /// Field-wise sum (e.g. attributing a session's one-off shuffle to a run).
  CommSnapshot Plus(const CommSnapshot& other) const;

  std::string ToString() const;
};

/// The ledger's fields, in declaration order: Since and Plus walk them, and
/// the checkpoint's dist blob stores each as an i64.
inline auto Fields(CommSnapshot& m) {
  return FieldList(m.shuffle_bytes, m.broadcast_bytes, m.collect_bytes,
                   m.query_bytes, m.shuffle_events, m.broadcast_events,
                   m.collect_events, m.query_events);
}

inline CommSnapshot CommSnapshot::Since(const CommSnapshot& begin) const {
  return ZipFields(*this, begin, std::minus<>());
}

inline CommSnapshot CommSnapshot::Plus(const CommSnapshot& other) const {
  return ZipFields(*this, other, std::plus<>());
}

/// Thread-safe ledger of the bytes a real cluster would move over the
/// network. DBTF charges it exactly the volumes analyzed in Lemmas 6 and 7
/// of the paper: O(|X|) for the one-off partitioning shuffle, O(M*I*R) per
/// iteration of factor-matrix broadcast, and O(N*I) per column update of
/// error collection.
///
/// The counters are lock-free atomics, so no mutex (and no GUARDED_BY) is
/// needed. Within src/, only Cluster's Charge* methods may call the Record*
/// mutators — every routed message is charged exactly once at the routing
/// layer; analyzer rule comm-stats-mutation rejects any other site. Tests may
/// drive a standalone CommStats directly.
class CommStats {
 public:
  CommStats() = default;
  CommStats(const CommStats&) = delete;
  CommStats& operator=(const CommStats&) = delete;

  void RecordShuffle(std::int64_t bytes) {
    shuffle_bytes_.fetch_add(bytes, std::memory_order_relaxed);
    shuffle_events_.fetch_add(1, std::memory_order_relaxed);
  }
  void RecordBroadcast(std::int64_t bytes) {
    broadcast_bytes_.fetch_add(bytes, std::memory_order_relaxed);
    broadcast_events_.fetch_add(1, std::memory_order_relaxed);
  }
  void RecordCollect(std::int64_t bytes) {
    collect_bytes_.fetch_add(bytes, std::memory_order_relaxed);
    collect_events_.fetch_add(1, std::memory_order_relaxed);
  }
  void RecordQuery(std::int64_t bytes) {
    query_bytes_.fetch_add(bytes, std::memory_order_relaxed);
    query_events_.fetch_add(1, std::memory_order_relaxed);
  }

  CommSnapshot Snapshot() const;

  /// Zeroes all counters.
  void Reset();

 private:
  std::atomic<std::int64_t> shuffle_bytes_{0};
  std::atomic<std::int64_t> broadcast_bytes_{0};
  std::atomic<std::int64_t> collect_bytes_{0};
  std::atomic<std::int64_t> query_bytes_{0};
  std::atomic<std::int64_t> shuffle_events_{0};
  std::atomic<std::int64_t> broadcast_events_{0};
  std::atomic<std::int64_t> collect_events_{0};
  std::atomic<std::int64_t> query_events_{0};
};

}  // namespace dbtf

#endif  // DBTF_DIST_COMM_STATS_H_
