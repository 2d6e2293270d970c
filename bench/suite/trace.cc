#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

#include "common/check.h"

namespace dbtf {
namespace bench {

std::int64_t TraceRecorder::NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t TraceRecorder::Begin(std::string name, std::uint64_t request,
                                  std::int64_t start_ns) {
  const std::int64_t index = Add(std::move(name), start_ns, start_ns, request);
  open_.push_back(index);
  return index;
}

void TraceRecorder::End(std::int64_t index, std::int64_t end_ns) {
  DBTF_CHECK(!open_.empty() && open_.back() == index,
             "spans must close innermost first");
  open_.pop_back();
  spans_[static_cast<std::size_t>(index)].end_ns = end_ns;
}

std::int64_t TraceRecorder::Add(std::string name, std::int64_t start_ns,
                                std::int64_t end_ns, std::uint64_t request) {
  SpanRecord span;
  span.name = std::move(name);
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.parent = open_.empty() ? -1 : open_.back();
  span.request = request;
  spans_.push_back(std::move(span));
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void TraceRecorder::Count(const std::string& name, double value) {
  counters_[name].push_back(value);
}

std::vector<std::int64_t> TraceRecorder::SelfTimesNs() const {
  std::vector<std::vector<std::int64_t>> children(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) {
      children[static_cast<std::size_t>(spans_[i].parent)].push_back(
          static_cast<std::int64_t>(i));
    }
  }
  std::vector<std::int64_t> self(spans_.size(), 0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    // Union of the children's intervals, clipped to the parent's: children
    // may overlap each other or poke out of a parent timed from hooks.
    std::vector<std::pair<std::int64_t, std::int64_t>> cover;
    for (const std::int64_t c : children[i]) {
      const SpanRecord& child = spans_[static_cast<std::size_t>(c)];
      const std::int64_t lo = std::max(child.start_ns, s.start_ns);
      const std::int64_t hi = std::min(child.end_ns, s.end_ns);
      if (lo < hi) cover.emplace_back(lo, hi);
    }
    std::sort(cover.begin(), cover.end());
    std::int64_t covered = 0;
    std::int64_t reach = s.start_ns;
    for (const auto& [lo, hi] : cover) {
      const std::int64_t from = std::max(lo, reach);
      if (hi > from) covered += hi - from;
      reach = std::max(reach, hi);
    }
    self[i] = (s.end_ns - s.start_ns) - covered;
  }
  return self;
}

std::vector<double> TraceRecorder::Micros(const std::string& name,
                                          bool self) const {
  std::vector<std::int64_t> self_ns;
  if (self) self_ns = SelfTimesNs();
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name != name) continue;
    const std::int64_t ns =
        self ? self_ns[i] : spans_[i].end_ns - spans_[i].start_ns;
    out.push_back(static_cast<double>(ns) / 1e3);
  }
  return out;
}

Status TraceRecorder::WriteChromeTrace(const std::string& path,
                                       std::size_t max_events) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IoError("cannot write trace " + path);
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  const std::size_t written = std::min(max_events, spans_.size());
  std::fprintf(f, "{\"displayTimeUnit\": \"ns\", \"otherData\": "
                  "{\"spans\": %zu, \"dropped\": %zu},\n\"traceEvents\": [\n",
               spans_.size(), spans_.size() - written);
  for (std::size_t i = 0; i < written; ++i) {
    const SpanRecord& s = spans_[i];
    // Span names are dotted identifiers chosen by the benchmark, so they
    // need no JSON escaping.
    std::fprintf(f,
                 "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                 "\"parent\": %lld, \"request\": %llu}}%s\n",
                 s.name.c_str(), static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 i + 1 < written ? "," : "");
  }
  std::fprintf(f, "]}\n");
  if (std::fclose(f) != 0) return Status::IoError("cannot close trace " + path);
  return Status::OK();
}

}  // namespace bench
}  // namespace dbtf
