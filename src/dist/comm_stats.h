#ifndef DBTF_DIST_COMM_STATS_H_
#define DBTF_DIST_COMM_STATS_H_

#include <atomic>
#include <cstdint>
#include <string>

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
  CommSnapshot Since(const CommSnapshot& begin) const {
    CommSnapshot d;
    d.shuffle_bytes = shuffle_bytes - begin.shuffle_bytes;
    d.broadcast_bytes = broadcast_bytes - begin.broadcast_bytes;
    d.collect_bytes = collect_bytes - begin.collect_bytes;
    d.query_bytes = query_bytes - begin.query_bytes;
    d.shuffle_events = shuffle_events - begin.shuffle_events;
    d.broadcast_events = broadcast_events - begin.broadcast_events;
    d.collect_events = collect_events - begin.collect_events;
    d.query_events = query_events - begin.query_events;
    return d;
  }

  /// Field-wise sum (e.g. attributing a session's one-off shuffle to a run).
  CommSnapshot Plus(const CommSnapshot& other) const {
    CommSnapshot s;
    s.shuffle_bytes = shuffle_bytes + other.shuffle_bytes;
    s.broadcast_bytes = broadcast_bytes + other.broadcast_bytes;
    s.collect_bytes = collect_bytes + other.collect_bytes;
    s.query_bytes = query_bytes + other.query_bytes;
    s.shuffle_events = shuffle_events + other.shuffle_events;
    s.broadcast_events = broadcast_events + other.broadcast_events;
    s.collect_events = collect_events + other.collect_events;
    s.query_events = query_events + other.query_events;
    return s;
  }

  std::string ToString() const;
};

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
