#ifndef DBTF_DIST_FAULT_H_
#define DBTF_DIST_FAULT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/fields.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace dbtf {

/// The routed message kinds a fault can target: the FactorDelta of
/// Cluster::BroadcastFactors, the per-machine column exchange of
/// Cluster::RunColumn (one dispatch delivery carries the task and brings
/// back its errors), and the serving replies of Cluster::QueryWorker
/// (collect).
enum class MessageKind { kBroadcast = 0, kDispatch = 1, kCollect = 2 };

const char* MessageKindToString(MessageKind kind);

/// What an injected fault does to a targeted delivery.
enum class FaultKind {
  /// The delivery fails with kUnavailable; later attempts may succeed.
  kTransient,
  /// The machine dies permanently: its endpoint is detached, every later
  /// delivery to it fails, and its partitions must be re-provisioned.
  kCrash,
  /// The delivery is delayed by `stall_seconds` of *virtual* time (never a
  /// wall-clock sleep). A stall past the retry policy's message deadline
  /// fails the attempt with kDeadlineExceeded.
  kStall,
};

const char* FaultKindToString(FaultKind kind);

/// One planned fault: the `delivery`-th delivery (1-based, counted per
/// (machine, message kind)) misbehaves; `count` consecutive deliveries are
/// affected (crashes ignore `count` — dead is dead).
struct FaultSpec {
  int machine = 0;
  MessageKind message = MessageKind::kDispatch;
  FaultKind kind = FaultKind::kTransient;
  std::int64_t delivery = 1;
  std::int64_t count = 1;
  double stall_seconds = 0.0;  ///< kStall only: virtual delay per delivery

  /// "machine:message:kind@delivery[xcount][~stall_seconds]".
  std::string ToString() const;
};

/// A deterministic fault schedule. The plan is data, not behaviour: given
/// the same plan and the same message sequence, exactly the same deliveries
/// fail, so every faulted run is reproducible (and bisectable).
struct FaultPlan {
  std::vector<FaultSpec> faults;

  bool empty() const { return faults.empty(); }

  /// Checks machine indexes, delivery ordinals, and stall durations against
  /// a cluster of `num_machines` machines.
  Status Validate(int num_machines) const;

  /// Seed-driven plan for a factorization: `num_transient` transient/stall
  /// faults spread over machines and the broadcast and dispatch kinds (the
  /// deliveries a factorization makes), plus at most `num_crashes` permanent
  /// machine losses (on distinct machines, never more than M - 1 of them).
  /// Deterministic given the seed.
  static FaultPlan Random(std::uint64_t seed, int num_machines,
                          int num_transient, int num_crashes);

  /// Parses a comma-separated list of FaultSpec::ToString forms, e.g.
  /// "1:dispatch:transient@3x2,2:broadcast:crash@2,0:collect:stall@1~0.5".
  static Result<FaultPlan> Parse(const std::string& text);

  std::string ToString() const;
};

/// Bounded-retry policy applied by Cluster routing to every delivery:
/// `max_attempts` tries per message, exponential backoff charged as virtual
/// network time (never a wall-clock sleep), and a per-message virtual
/// deadline that turns long stalls into retryable kDeadlineExceeded
/// failures. Only IsRetryable codes are retried; everything else surfaces
/// immediately.
struct RetryPolicy {
  int max_attempts = 3;
  double backoff_seconds = 1e-3;  ///< virtual backoff before the 2nd attempt
  double backoff_multiplier = 2.0;
  double message_deadline_seconds = 0.25;  ///< virtual, per delivery

  Status Validate() const;
};

/// Snapshot of the recovery ledger: what failing and healing cost a run.
/// Mirrors CommSnapshot (Since/Plus attribution across runs of a session).
struct RecoveryStats {
  std::int64_t failed_deliveries = 0;  ///< attempts that failed retryably
  std::int64_t retries = 0;            ///< redelivery attempts made
  std::int64_t machines_lost = 0;      ///< permanent crashes observed
  std::int64_t reprovisions = 0;       ///< partitions rebuilt onto survivors
  std::int64_t reshipped_bytes = 0;    ///< partition bytes re-shuffled
  double recovery_seconds = 0.0;       ///< virtual time lost to recovery

  RecoveryStats Since(const RecoveryStats& begin) const;
  RecoveryStats Plus(const RecoveryStats& other) const;
  std::string ToString() const;
};

/// The ledger's fields, in declaration order: Since and Plus walk them, and
/// the checkpoint's dist blob stores them (five i64, one f64).
inline auto Fields(RecoveryStats& m) {
  return FieldList(m.failed_deliveries, m.retries, m.machines_lost,
                   m.reprovisions, m.reshipped_bytes, m.recovery_seconds);
}

/// Thread-safe ledger behind RecoveryStats. Within src/, only Cluster's
/// charging layer (src/dist/cluster.cc) may call the Record* mutators —
/// tools/dbtf_analyze.py (rule recovery-stats-mutation) rejects any other
/// mutation site, so recovery costs are counted exactly once. Tests may
/// drive a standalone RecoveryLedger directly.
class RecoveryLedger {
 public:
  RecoveryLedger() = default;
  RecoveryLedger(const RecoveryLedger&) = delete;
  RecoveryLedger& operator=(const RecoveryLedger&) = delete;

  void RecordFailedDelivery();
  void RecordRetry(double backoff_seconds);
  void RecordMachineLost();
  void RecordReprovision(std::int64_t bytes, double seconds);
  void RecordStall(double seconds);

  RecoveryStats Snapshot() const DBTF_EXCLUDES(mu_);

 private:
  mutable Mutex mu_;
  RecoveryStats stats_ DBTF_GUARDED_BY(mu_);
};

/// Deterministic fault oracle consulted by Cluster routing before every
/// message delivery. Counters are per (machine, message kind), so parallel
/// deliveries to different machines cannot perturb each other's fault
/// schedule — the outcome sequence each machine sees is a pure function of
/// the plan, independent of thread interleaving. The injector keeps no
/// dead-machine state: a crash outcome tells Cluster, which owns the dead
/// set and never consults the injector for a dead machine again.
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan);

  /// Decision for one delivery attempt.
  struct Outcome {
    Status status;               ///< OK: deliver the message normally
    double stall_seconds = 0.0;  ///< virtual delay to charge before delivery
    bool machine_lost = false;   ///< permanent crash: detach the endpoint
  };

  /// Advances the (machine, message) delivery counter and returns what
  /// happens to this attempt.
  Outcome OnDelivery(int machine, MessageKind message) DBTF_EXCLUDES(mu_);

  /// Snapshot of the per-(machine, message-kind) delivery counters, indexed
  /// machine * 3 + kind — read-only, for checkpointing. A resumed run that
  /// restores these counters replays the remainder of its fault plan's
  /// schedule exactly.
  std::vector<std::int64_t> DeliveryCounters() const DBTF_EXCLUDES(mu_);

  /// Restores the counters captured by DeliveryCounters().
  void RestoreDeliveryState(const std::vector<std::int64_t>& deliveries)
      DBTF_EXCLUDES(mu_);

 private:
  FaultPlan plan_;

  mutable Mutex mu_;
  /// Delivery counters, indexed machine * 3 + kind (grown on demand).
  std::vector<std::int64_t> deliveries_ DBTF_GUARDED_BY(mu_);
};

}  // namespace dbtf

#endif  // DBTF_DIST_FAULT_H_
