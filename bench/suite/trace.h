#ifndef DBTF_BENCH_SUITE_TRACE_H_
#define DBTF_BENCH_SUITE_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace dbtf {
namespace bench {

/// One recorded span: a call into one layer, timed from the benchmark.
struct SpanRecord {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;   ///< index of the enclosing span, -1 for a root
  std::uint64_t request = 0;  ///< spans of one request share this id
};

/// Bench-side span and counter recorder.
///
/// Spans are recorded around calls into the program's public layer
/// functions, kept in memory, and written out once at the end of a run, so
/// recording costs one clock read and one vector append per span. A span's
/// parent is the innermost span open when it began. Single-threaded: every
/// span is opened and closed on the thread that drives the workload.
class TraceRecorder {
 public:
  /// Monotonic clock shared by every span, in nanoseconds.
  static std::int64_t NowNs();

  /// Opens a span under the innermost open span; returns its index.
  std::int64_t Begin(std::string name, std::uint64_t request,
                     std::int64_t start_ns = NowNs());
  /// Closes span `index`, which must be the innermost open span.
  void End(std::int64_t index, std::int64_t end_ns = NowNs());
  /// Records an already-timed span under the innermost open span (for
  /// intervals known only from hook timestamps).
  std::int64_t Add(std::string name, std::int64_t start_ns,
                   std::int64_t end_ns, std::uint64_t request);

  /// Appends one sample of a counter recorded at a layer boundary.
  void Count(const std::string& name, double value);

  const std::vector<SpanRecord>& spans() const { return spans_; }
  const std::map<std::string, std::vector<double>>& counters() const {
    return counters_;
  }

  /// Self time of every span, in nanoseconds: its duration minus the part
  /// of its interval that its direct children cover.
  std::vector<std::int64_t> SelfTimesNs() const;

  /// Durations (or, with `self`, self times) in microseconds of every span
  /// named `name`.
  std::vector<double> Micros(const std::string& name, bool self = false) const;

  /// Writes the first `max_events` spans as Chrome trace-event JSON
  /// (complete "X" events, loadable in chrome://tracing or Perfetto). The
  /// metadata records how many spans were left out.
  Status WriteChromeTrace(const std::string& path,
                          std::size_t max_events) const;

 private:
  std::vector<SpanRecord> spans_;
  std::vector<std::int64_t> open_;
  std::map<std::string, std::vector<double>> counters_;
};

/// RAII span; a null recorder (tracing off) makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(TraceRecorder* recorder, std::string name,
             std::uint64_t request = 0)
      : recorder_(recorder),
        index_(recorder != nullptr ? recorder->Begin(std::move(name), request)
                                   : -1) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  TraceRecorder* recorder_;
  std::int64_t index_;
};

}  // namespace bench
}  // namespace dbtf

#endif  // DBTF_BENCH_SUITE_TRACE_H_
