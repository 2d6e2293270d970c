#include "dist/fault.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <utility>

#include "common/random.h"

namespace dbtf {
namespace {

/// Deliveries per (machine, message kind) counter slot.
constexpr int kMessageKinds = 3;

/// Kinds a factorization delivers — broadcasts and column exchanges — so a
/// random plan targets only deliveries that happen (kCollect carries only
/// serving replies).
constexpr std::uint64_t kFactorizationKinds = 2;

int SlotIndex(int machine, MessageKind message) {
  return machine * kMessageKinds + static_cast<int>(message);
}

bool ParseMessageKind(const std::string& word, MessageKind* out) {
  if (word == "broadcast") {
    *out = MessageKind::kBroadcast;
  } else if (word == "dispatch") {
    *out = MessageKind::kDispatch;
  } else if (word == "collect") {
    *out = MessageKind::kCollect;
  } else {
    return false;
  }
  return true;
}

bool ParseFaultKind(const std::string& word, FaultKind* out) {
  if (word == "transient") {
    *out = FaultKind::kTransient;
  } else if (word == "crash") {
    *out = FaultKind::kCrash;
  } else if (word == "stall") {
    *out = FaultKind::kStall;
  } else {
    return false;
  }
  return true;
}

/// The "~seconds" text of a stall: six significant digits.
std::string StallText(double seconds) {
  char buf[32];
  const int n = std::snprintf(buf, sizeof(buf), "%g", seconds);
  return std::string(buf, static_cast<std::size_t>(n));
}

Result<FaultSpec> ParseSpec(const std::string& text) {
  const auto bad = [&text](const char* why) {
    return Status::InvalidArgument("fault spec \"" + text + "\": " + why);
  };

  const std::size_t colon1 = text.find(':');
  const std::size_t colon2 =
      colon1 == std::string::npos ? std::string::npos
                                  : text.find(':', colon1 + 1);
  const std::size_t at = text.find('@');
  if (colon1 == std::string::npos || colon2 == std::string::npos ||
      at == std::string::npos || at < colon2) {
    return bad("expected machine:message:kind@delivery[xN][~S]");
  }

  FaultSpec spec;
  {
    const std::string machine = text.substr(0, colon1);
    char* end = nullptr;
    const long index = std::strtol(machine.c_str(), &end, 10);
    spec.machine = static_cast<int>(index);
    if (machine.empty() || end == nullptr || *end != '\0' ||
        spec.machine != index) {
      return bad("machine index is not an int");
    }
  }
  if (!ParseMessageKind(text.substr(colon1 + 1, colon2 - colon1 - 1),
                        &spec.message)) {
    return bad("message kind must be broadcast, dispatch, or collect");
  }
  if (!ParseFaultKind(text.substr(colon2 + 1, at - colon2 - 1), &spec.kind)) {
    return bad("fault kind must be transient, crash, or stall");
  }

  // Tail: delivery ordinal, optional "x<count>", optional "~<stall_seconds>".
  std::string tail = text.substr(at + 1);
  const std::size_t tilde = tail.find('~');
  if (tilde != std::string::npos) {
    const std::string stall = tail.substr(tilde + 1);
    char* end = nullptr;
    spec.stall_seconds = std::strtod(stall.c_str(), &end);
    if (stall.empty() || end == nullptr || *end != '\0') {
      return bad("stall seconds is not a number");
    }
    // ToString must give this spec back, so reject what it cannot print.
    if (spec.kind != FaultKind::kStall || !std::isfinite(spec.stall_seconds) ||
        std::strtod(StallText(spec.stall_seconds).c_str(), nullptr) !=
            spec.stall_seconds) {
      return bad("only a stall takes ~seconds: finite, at most 6 digits");
    }
    tail = tail.substr(0, tilde);
  }
  const std::size_t x = tail.find('x');
  if (x != std::string::npos) {
    const std::string count = tail.substr(x + 1);
    char* end = nullptr;
    spec.count = std::strtoll(count.c_str(), &end, 10);
    if (count.empty() || end == nullptr || *end != '\0') {
      return bad("repeat count is not an integer");
    }
    tail = tail.substr(0, x);
  }
  {
    char* end = nullptr;
    spec.delivery = std::strtoll(tail.c_str(), &end, 10);
    if (tail.empty() || end == nullptr || *end != '\0') {
      return bad("delivery ordinal is not an integer");
    }
  }
  return spec;
}

}  // namespace

const char* MessageKindToString(MessageKind kind) {
  switch (kind) {
    case MessageKind::kBroadcast:
      return "broadcast";
    case MessageKind::kDispatch:
      return "dispatch";
    case MessageKind::kCollect:
      return "collect";
  }
  return "unknown";
}

const char* FaultKindToString(FaultKind kind) {
  switch (kind) {
    case FaultKind::kTransient:
      return "transient";
    case FaultKind::kCrash:
      return "crash";
    case FaultKind::kStall:
      return "stall";
  }
  return "unknown";
}

std::string FaultSpec::ToString() const {
  char buf[160];
  int n = std::snprintf(buf, sizeof(buf), "%d:%s:%s@%lld", machine,
                        MessageKindToString(message), FaultKindToString(kind),
                        static_cast<long long>(delivery));
  if (count != 1) {
    n += std::snprintf(buf + n, sizeof(buf) - n, "x%lld",
                       static_cast<long long>(count));
  }
  std::string out(buf, static_cast<std::size_t>(n));
  if (kind == FaultKind::kStall) out += "~" + StallText(stall_seconds);
  return out;
}

Status FaultPlan::Validate(int num_machines) const {
  for (const FaultSpec& spec : faults) {
    const std::string what = "fault \"" + spec.ToString() + "\": ";
    if (spec.machine < 0 || spec.machine >= num_machines) {
      return Status::InvalidArgument(what + "machine index out of range for " +
                                     std::to_string(num_machines) +
                                     " machines");
    }
    if (spec.delivery < 1) {
      return Status::InvalidArgument(what +
                                     "delivery ordinals are 1-based; got " +
                                     std::to_string(spec.delivery));
    }
    if (spec.count < 1) {
      return Status::InvalidArgument(what + "repeat count must be >= 1");
    }
    if (spec.kind == FaultKind::kStall && spec.stall_seconds < 0.0) {
      return Status::InvalidArgument(what + "stall seconds must be >= 0");
    }
    if (spec.kind != FaultKind::kStall && spec.stall_seconds != 0.0) {
      return Status::InvalidArgument(what +
                                     "stall seconds only apply to stalls");
    }
  }
  // At least one machine must survive every planned crash, or no amount of
  // re-provisioning can make progress.
  int crashes = 0;
  std::vector<bool> crashed(static_cast<std::size_t>(num_machines), false);
  for (const FaultSpec& spec : faults) {
    if (spec.kind != FaultKind::kCrash) continue;
    if (!crashed[static_cast<std::size_t>(spec.machine)]) {
      crashed[static_cast<std::size_t>(spec.machine)] = true;
      ++crashes;
    }
  }
  if (num_machines > 0 && crashes >= num_machines) {
    return Status::InvalidArgument(
        "fault plan crashes all " + std::to_string(num_machines) +
        " machines; at least one must survive");
  }
  return Status::OK();
}

FaultPlan FaultPlan::Random(std::uint64_t seed, int num_machines,
                            int num_transient, int num_crashes) {
  FaultPlan plan;
  if (num_machines <= 0) return plan;
  Rng rng(seed);
  for (int i = 0; i < num_transient; ++i) {
    FaultSpec spec;
    spec.machine =
        static_cast<int>(rng.NextBounded(static_cast<std::uint64_t>(num_machines)));
    spec.message =
        static_cast<MessageKind>(rng.NextBounded(kFactorizationKinds));
    // Mostly plain transient failures, occasionally a short stall (still
    // retryable: it is kept under any sane message deadline).
    if (rng.NextBool(0.25)) {
      spec.kind = FaultKind::kStall;
      spec.stall_seconds = 1e-4 * static_cast<double>(1 + rng.NextBounded(5));
    } else {
      spec.kind = FaultKind::kTransient;
    }
    spec.delivery = 1 + static_cast<std::int64_t>(rng.NextBounded(8));
    spec.count = 1;
    plan.faults.push_back(spec);
  }
  // Crashes land on distinct machines and always spare machine 0 so at least
  // one survivor can adopt the lost partitions.
  const int max_crashes =
      num_crashes < num_machines - 1 ? num_crashes : num_machines - 1;
  std::vector<bool> used(static_cast<std::size_t>(num_machines), false);
  for (int i = 0; i < max_crashes; ++i) {
    int machine;
    do {
      machine = 1 + static_cast<int>(rng.NextBounded(
                        static_cast<std::uint64_t>(num_machines - 1)));
    } while (used[static_cast<std::size_t>(machine)]);
    used[static_cast<std::size_t>(machine)] = true;
    FaultSpec spec;
    spec.machine = machine;
    spec.message =
        static_cast<MessageKind>(rng.NextBounded(kFactorizationKinds));
    spec.kind = FaultKind::kCrash;
    spec.delivery = 1 + static_cast<std::int64_t>(rng.NextBounded(8));
    plan.faults.push_back(spec);
  }
  return plan;
}

Result<FaultPlan> FaultPlan::Parse(const std::string& text) {
  FaultPlan plan;
  std::size_t begin = 0;
  while (begin <= text.size()) {
    std::size_t end = text.find(',', begin);
    if (end == std::string::npos) end = text.size();
    // Trim surrounding whitespace; empty entries (including an empty input)
    // are skipped so trailing commas are harmless.
    std::size_t lo = begin;
    std::size_t hi = end;
    while (lo < hi && std::isspace(static_cast<unsigned char>(text[lo]))) ++lo;
    while (hi > lo && std::isspace(static_cast<unsigned char>(text[hi - 1]))) {
      --hi;
    }
    if (hi > lo) {
      DBTF_ASSIGN_OR_RETURN(FaultSpec spec,
                            ParseSpec(text.substr(lo, hi - lo)));
      plan.faults.push_back(spec);
    }
    begin = end + 1;
  }
  return plan;
}

std::string FaultPlan::ToString() const {
  std::string out;
  for (const FaultSpec& spec : faults) {
    if (!out.empty()) out += ',';
    out += spec.ToString();
  }
  return out;
}

Status RetryPolicy::Validate() const {
  if (max_attempts < 1) {
    return Status::InvalidArgument("retry policy: max_attempts must be >= 1");
  }
  if (backoff_seconds < 0.0) {
    return Status::InvalidArgument(
        "retry policy: backoff_seconds must be >= 0");
  }
  if (backoff_multiplier < 1.0) {
    return Status::InvalidArgument(
        "retry policy: backoff_multiplier must be >= 1");
  }
  if (message_deadline_seconds <= 0.0) {
    return Status::InvalidArgument(
        "retry policy: message_deadline_seconds must be > 0");
  }
  return Status::OK();
}

RecoveryStats RecoveryStats::Since(const RecoveryStats& begin) const {
  return ZipFields(*this, begin, std::minus<>());
}

RecoveryStats RecoveryStats::Plus(const RecoveryStats& other) const {
  return ZipFields(*this, other, std::plus<>());
}

std::string RecoveryStats::ToString() const {
  char buf[256];
  const int n = std::snprintf(
      buf, sizeof(buf),
      "failed_deliveries=%lld retries=%lld machines_lost=%lld "
      "reprovisions=%lld reshipped_bytes=%lld recovery_seconds=%.6f",
      static_cast<long long>(failed_deliveries),
      static_cast<long long>(retries), static_cast<long long>(machines_lost),
      static_cast<long long>(reprovisions),
      static_cast<long long>(reshipped_bytes), recovery_seconds);
  return std::string(buf, n);
}

void RecoveryLedger::RecordFailedDelivery() {
  MutexLock lock(mu_);
  ++stats_.failed_deliveries;
}

void RecoveryLedger::RecordRetry(double backoff_seconds) {
  MutexLock lock(mu_);
  ++stats_.retries;
  stats_.recovery_seconds += backoff_seconds;
}

void RecoveryLedger::RecordMachineLost() {
  MutexLock lock(mu_);
  ++stats_.machines_lost;
}

void RecoveryLedger::RecordReprovision(std::int64_t bytes, double seconds) {
  MutexLock lock(mu_);
  ++stats_.reprovisions;
  stats_.reshipped_bytes += bytes;
  stats_.recovery_seconds += seconds;
}

void RecoveryLedger::RecordStall(double seconds) {
  MutexLock lock(mu_);
  stats_.recovery_seconds += seconds;
}

RecoveryStats RecoveryLedger::Snapshot() const {
  MutexLock lock(mu_);
  return stats_;
}

FaultInjector::FaultInjector(FaultPlan plan) : plan_(std::move(plan)) {}

FaultInjector::Outcome FaultInjector::OnDelivery(int machine,
                                                 MessageKind message) {
  Outcome outcome;
  MutexLock lock(mu_);
  if (machine < 0) return outcome;
  const auto slot = static_cast<std::size_t>(SlotIndex(machine, message));
  if (deliveries_.size() <= slot) deliveries_.resize(slot + 1, 0);
  const std::int64_t ordinal = ++deliveries_[slot];
  for (const FaultSpec& spec : plan_.faults) {
    if (spec.machine != machine || spec.message != message) continue;
    if (ordinal < spec.delivery || ordinal >= spec.delivery + spec.count) {
      continue;
    }
    switch (spec.kind) {
      case FaultKind::kTransient:
        outcome.status = Status::Unavailable(
            "injected transient fault on machine " + std::to_string(machine) +
            " (" + MessageKindToString(message) + " delivery " +
            std::to_string(ordinal) + ")");
        return outcome;
      case FaultKind::kCrash:
        outcome.status = Status::Unavailable(
            "injected crash on machine " + std::to_string(machine) + " (" +
            MessageKindToString(message) + " delivery " +
            std::to_string(ordinal) + ")");
        outcome.machine_lost = true;
        return outcome;
      case FaultKind::kStall:
        // Stalls accumulate: two specs hitting the same delivery both delay
        // it. The delivery itself still goes through unless the caller's
        // deadline says otherwise.
        outcome.stall_seconds += spec.stall_seconds;
        break;
    }
  }
  return outcome;
}

std::vector<std::int64_t> FaultInjector::DeliveryCounters() const {
  MutexLock lock(mu_);
  return deliveries_;
}

void FaultInjector::RestoreDeliveryState(
    const std::vector<std::int64_t>& deliveries) {
  MutexLock lock(mu_);
  deliveries_ = deliveries;
}

}  // namespace dbtf
