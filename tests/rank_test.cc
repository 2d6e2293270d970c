#include "common/rank.h"

#include <gtest/gtest.h>

#include <cstdint>

namespace dbtf {
namespace {

TEST(ValidateRank, AcceptsExactlyOneThroughMaxRank) {
  struct Case {
    std::int64_t rank;
    bool ok;
  };
  for (const Case& c : {Case{0, false}, Case{1, true}, Case{kMaxRank, true},
                        Case{kMaxRank + 1, false}}) {
    const Status status = ValidateRank(c.rank, "test rank");
    EXPECT_EQ(status.ok(), c.ok) << "rank " << c.rank;
    if (!c.ok) {
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
      EXPECT_EQ(status.message(), "test rank must be in [1, 64]");
    }
  }
}

}  // namespace
}  // namespace dbtf
