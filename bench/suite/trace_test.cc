#include <gtest/gtest.h>

#include <vector>

#include "stats.h"
#include "trace.h"

namespace dbtf {
namespace bench {
namespace {

// A root [0, 100) with children [10, 30) and [20, 50), which overlap, and
// [90, 120), which runs past the root's end; the first child holds a
// grandchild [12, 18).
TEST(TraceRecorderTest, SelfTimeSubtractsTheUnionOfDirectChildren) {
  TraceRecorder trace;
  const std::int64_t root = trace.Begin("root", 7, 0);
  const std::int64_t first = trace.Begin("child", 7, 10);
  const std::int64_t grandchild = trace.Add("grandchild", 12, 18, 7);
  trace.End(first, 30);
  const std::int64_t second = trace.Add("child", 20, 50, 7);
  const std::int64_t third = trace.Add("child", 90, 120, 7);
  trace.End(root, 100);

  const auto& spans = trace.spans();
  EXPECT_EQ(spans[root].parent, -1);
  EXPECT_EQ(spans[first].parent, root);
  EXPECT_EQ(spans[grandchild].parent, first);
  EXPECT_EQ(spans[second].parent, root);
  EXPECT_EQ(spans[third].parent, root);

  const std::vector<std::int64_t> self = trace.SelfTimesNs();
  // Children cover [10, 50) and [90, 100) of the root; the grandchild
  // counts against its own parent only.
  EXPECT_EQ(self[root], 100 - 40 - 10);
  EXPECT_EQ(self[first], 20 - 6);
  EXPECT_EQ(self[grandchild], 6);
  EXPECT_EQ(self[second], 30);
  EXPECT_EQ(self[third], 30);

  EXPECT_EQ(trace.Micros("child"), (std::vector<double>{0.02, 0.03, 0.03}));
  EXPECT_EQ(trace.Micros("root", /*self=*/true), std::vector<double>{0.05});
}

TEST(TraceRecorderTest, NullRecorderMakesScopedSpansNoOps) {
  { ScopedSpan span(nullptr, "ignored"); }
  TraceRecorder trace;
  {
    ScopedSpan outer(&trace, "outer", 3);
    ScopedSpan inner(&trace, "inner", 3);
  }
  ASSERT_EQ(trace.spans().size(), 2u);
  EXPECT_EQ(trace.spans()[1].parent, 0);
  EXPECT_LE(trace.spans()[0].start_ns, trace.spans()[1].start_ns);
  EXPECT_LE(trace.spans()[1].end_ns, trace.spans()[0].end_ns);
}

TEST(StatsTest, HighestSupportedPercentileLeavesTenSamplesBeyond) {
  EXPECT_EQ(HighestSupportedPercentile(10000), 99.9);
  EXPECT_EQ(HighestSupportedPercentile(9999), 99.0);
  EXPECT_EQ(HighestSupportedPercentile(1000), 99.0);
  EXPECT_EQ(HighestSupportedPercentile(999), 90.0);
  EXPECT_EQ(HighestSupportedPercentile(100), 90.0);
  EXPECT_EQ(HighestSupportedPercentile(99), 50.0);
  EXPECT_EQ(HighestSupportedPercentile(20), 50.0);
  EXPECT_EQ(HighestSupportedPercentile(19), 0.0);
  EXPECT_EQ(HighestSupportedPercentile(0), 0.0);
  EXPECT_EQ(HighestSupportedPercentile(200, 20), 90.0);
}

TEST(StatsTest, PercentileInterpolatesBetweenOrderStatistics) {
  const std::vector<double> samples = {4, 1, 3, 2};
  EXPECT_DOUBLE_EQ(Percentile(samples, 0), 1);
  EXPECT_DOUBLE_EQ(Percentile(samples, 50), 2.5);
  EXPECT_DOUBLE_EQ(Percentile(samples, 100), 4);
  EXPECT_DOUBLE_EQ(Median({5, 1, 3}), 3);
  EXPECT_DOUBLE_EQ(Percentile({}, 90), 0);
}

}  // namespace
}  // namespace bench
}  // namespace dbtf
