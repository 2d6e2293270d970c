// The worker's column handler against brute force. Worker::Handle(run, req)
// scores a column block by block and skips the blocks whose M_f row lacks
// the column's bit; the reference here scores every block for both
// candidates, bit by bit, without cache tables. The replies must agree on
// every row of every column, on both transports, byte for byte.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/serde.h"
#include "dbtf/engine.h"
#include "dbtf/partition.h"
#include "dist/cluster.h"
#include "dist/messages.h"
#include "dist/provision.h"
#include "dist/transport/wire.h"
#include "test_util.h"

namespace dbtf {
namespace {

constexpr int kMfSlot = 2;
constexpr int kMsSlot = 1;

/// Candidate error of one block row under one key, cell by cell: the OR of
/// the M_s columns the key selects against the block's slice of X(1).
std::int64_t BruteBlockError(const PartitionBlock& block, std::int64_t row,
                             std::uint64_t key, const BitMatrix& ms) {
  std::int64_t error = 0;
  for (std::int64_t j = block.within_begin; j < block.within_end; ++j) {
    bool sum = false;
    for (std::int64_t r = 0; r < ms.cols() && !sum; ++r) {
      sum = ((key >> r) & 1) != 0 && ms.Get(j, r);
    }
    if (sum != block.rows.Get(row, j - block.within_begin)) ++error;
  }
  return error;
}

/// What one machine's reply must hold for column `c`: every block of its
/// partitions scored for both candidates (no block skipped).
struct Expected {
  std::vector<std::int64_t> diffs;
  std::int64_t err0_total = 0;
};

Expected BruteColumn(const std::vector<const Partition*>& partitions,
                     const std::vector<std::uint64_t>& row_masks,
                     const BitMatrix& mf, const BitMatrix& ms,
                     std::int64_t c) {
  const std::uint64_t bit = std::uint64_t{1} << c;
  Expected out;
  out.diffs.assign(row_masks.size(), 0);
  for (const Partition* part : partitions) {
    for (const PartitionBlock& block : part->blocks) {
      const std::uint64_t fmask = mf.RowMask64(block.block_index);
      for (std::size_t r = 0; r < row_masks.size(); ++r) {
        const std::uint64_t k0 = row_masks[r] & ~bit & fmask;
        const std::uint64_t k1 = (row_masks[r] | bit) & fmask;
        const std::int64_t row = static_cast<std::int64_t>(r);
        const std::int64_t e0 = BruteBlockError(block, row, k0, ms);
        out.diffs[r] += BruteBlockError(block, row, k1, ms) - e0;
        out.err0_total += e0;
      }
    }
  }
  return out;
}

struct HandlerCase {
  std::int64_t rank;
  int v;
  bool caching;
  std::int64_t partitions;
};

void PrintTo(const HandlerCase& hc, std::ostream* os) {
  *os << "R=" << hc.rank << " V=" << hc.v
      << (hc.caching ? " cached" : " uncached") << " N=" << hc.partitions;
}

/// A mode-1 problem whose M_f has an all-zero row and, for every column,
/// rows with and without that column's bit.
struct Problem {
  PartitionedUnfolding unfolding;
  BitMatrix factor;
  BitMatrix mf;
  BitMatrix ms;

  static Problem Make(const HandlerCase& hc, std::uint64_t seed) {
    // J = 150 > 128, so blocks come in full, prefix, suffix and interior
    // shapes across the partition boundaries.
    const SparseTensor x = testing::RandomTensor(18, 150, 15, 0.12, seed);
    Rng rng(seed + 1);
    Problem p{PartitionedUnfolding::Build(x, Mode::kOne, hc.partitions)
                  .value(),
              BitMatrix::Random(18, hc.rank, 0.3, &rng),
              BitMatrix::Random(15, hc.rank, 0.3, &rng),
              BitMatrix::Random(150, hc.rank, 0.3, &rng)};
    p.mf.SetRowMask64(0, 0);
    p.factor.SetRowMask64(1, 0);
    return p;
  }

  std::vector<std::uint64_t> RowMasks() const {
    std::vector<std::uint64_t> masks;
    for (std::int64_t r = 0; r < factor.rows(); ++r) {
      masks.push_back(factor.RowMask64(r));
    }
    return masks;
  }
};

/// Two machines on `transport`, each holding several of `p`'s partitions,
/// with M_f and M_s broadcast: ready for column exchanges.
std::unique_ptr<Cluster> StartCluster(const Problem& p, const HandlerCase& hc,
                                      TransportKind transport) {
  ClusterConfig config;
  config.num_machines = 2;
  config.num_threads = 2;
  config.transport.kind = transport;
  std::unique_ptr<Cluster> cluster = Cluster::Create(config).value();
  EXPECT_TRUE(ProvisionWorkers(*cluster).ok());
  const std::vector<Partition>& partitions = p.unfolding.partitions();
  for (std::size_t i = 0; i < partitions.size(); ++i) {
    EXPECT_TRUE(StorePartition(*cluster, Mode::kOne,
                               static_cast<std::int64_t>(i), partitions[i],
                               p.unfolding.shape())
                    .ok());
  }
  // A fresh planner ships both operands in full at new generations.
  DbtfConfig dbtf_config;
  dbtf_config.cache_group_size = hc.v;
  dbtf_config.enable_caching = hc.caching;
  FactorRoles roles;
  roles.mf_slot = kMfSlot;
  roles.ms_slot = kMsSlot;
  FactorBroadcastState broadcast;
  EXPECT_TRUE(cluster
                  ->BroadcastFactors(broadcast.Plan(roles, Mode::kOne,
                                                    p.factor.rows(), p.mf,
                                                    p.ms, dbtf_config))
                  .ok());
  return cluster;
}

/// Every machine's reply to every column of `p` on `transport`, each
/// checked against brute force on the way.
std::map<std::pair<int, std::int64_t>, CollectErrorsResponse> CheckColumns(
    const Problem& p, const HandlerCase& hc, TransportKind transport) {
  std::unique_ptr<Cluster> cluster = StartCluster(p, hc, transport);
  const std::vector<Partition>& partitions = p.unfolding.partitions();
  const std::vector<std::uint64_t> row_masks = p.RowMasks();
  std::map<std::pair<int, std::int64_t>, CollectErrorsResponse> replies;
  std::int64_t machines_with_several = 0;
  for (int m = 0; m < cluster->num_machines(); ++m) {
    const std::vector<std::int64_t> local =
        cluster->EndpointOn(m)->ListPartitions(Mode::kOne).value();
    if (local.size() > 1) ++machines_with_several;
    std::vector<const Partition*> resident;
    for (const std::int64_t i : local) {
      resident.push_back(&partitions[static_cast<std::size_t>(i)]);
    }
    for (std::int64_t c = 0; c < hc.rank; ++c) {
      RunUpdateColumn run{Mode::kOne, c, row_masks, p.factor.rows()};
      CollectErrorsRequest req{Mode::kOne, p.factor.rows(), c == 0};
      CollectErrorsResponse response;
      const Status status =
          cluster->EndpointOn(m)->RunColumn(run, req, &response, nullptr);
      EXPECT_TRUE(status.ok()) << status.ToString();
      const Expected expected =
          BruteColumn(resident, row_masks, p.mf, p.ms, c);
      EXPECT_EQ(response.diffs, expected.diffs)
          << "machine " << m << " column " << c;
      if (c == hc.rank - 1) {
        EXPECT_EQ(response.base_error, expected.err0_total)
            << "the final column carries Σ err0, machine " << m;
      } else {
        EXPECT_EQ(response.base_error, 0)
            << "machine " << m << " column " << c;
      }
      replies[{m, c}] = std::move(response);
    }
  }
  EXPECT_EQ(machines_with_several, cluster->num_machines())
      << "every machine must hold several partitions";
  cluster->DetachWorkers();
  return replies;
}

class ColumnHandler : public ::testing::TestWithParam<HandlerCase> {};

TEST_P(ColumnHandler, MatchesBruteForceOnBothTransports) {
  const HandlerCase hc = GetParam();
  const Problem p =
      Problem::Make(hc, 40 + static_cast<std::uint64_t>(hc.rank));
  for (std::int64_t c = 0; c < hc.rank; ++c) {
    std::int64_t with = 0;
    for (std::int64_t q = 0; q < p.mf.rows(); ++q) {
      with += p.mf.Get(q, c) ? 1 : 0;
    }
    ASSERT_GT(with, 0) << "column " << c << " must reach some block";
    ASSERT_LT(with, p.mf.rows() - 1)
        << "column " << c << " must skip some non-zero M_f row";
  }

  const auto inproc = CheckColumns(p, hc, TransportKind::kInProcess);
  const auto socket = CheckColumns(p, hc, TransportKind::kSocket);
  ASSERT_EQ(inproc.size(), socket.size());
  for (const auto& [key, reply] : inproc) {
    ByteWriter a;
    ByteWriter b;
    EncodeCollectErrorsResponse(reply, &a);
    EncodeCollectErrorsResponse(socket.at(key), &b);
    EXPECT_EQ(a.bytes(), b.bytes())
        << "machine " << key.first << " column " << key.second;
  }
}

INSTANTIATE_TEST_SUITE_P(
    RankVCachingPartitions, ColumnHandler,
    ::testing::Values(HandlerCase{1, 15, true, 4},  // one column, the final
                      HandlerCase{6, 15, true, 7},
                      HandlerCase{12, 5, true, 6},  // R > V: multi-group
                      HandlerCase{6, 15, false, 5}));  // no cache tables

/// A column at or past the resident rank has no candidate to score: the
/// worker refuses it, and the refusal reaches the driver as the same Status
/// whichever transport carries it.
class ColumnRange : public ::testing::TestWithParam<TransportKind> {};

TEST_P(ColumnRange, ColumnAtOrPastTheRankIsInvalid) {
  const HandlerCase hc{4, 15, true, 4};
  const Problem p = Problem::Make(hc, 77);
  std::unique_ptr<Cluster> cluster = StartCluster(p, hc, GetParam());
  const std::vector<std::uint64_t> row_masks = p.RowMasks();
  const CollectErrorsRequest req{Mode::kOne, p.factor.rows(), false};
  const auto run_column = [&](std::int64_t c) {
    CollectErrorsResponse response;
    return cluster->RunColumn(
        RunUpdateColumn{Mode::kOne, c, row_masks, p.factor.rows()}, req,
        &response);
  };
  const CommSnapshot before = cluster->comm().Snapshot();
  EXPECT_TRUE(run_column(hc.rank - 1).ok());
  for (const std::int64_t c : {hc.rank, hc.rank + 1, std::int64_t{63}}) {
    const Status status = run_column(c);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << "column " << c << ": " << status.ToString();
  }
  EXPECT_EQ(cluster->comm().Snapshot().Since(before).collect_events, 1)
      << "a refused column charges nothing";
  cluster->DetachWorkers();
}

INSTANTIATE_TEST_SUITE_P(Transports, ColumnRange,
                         ::testing::Values(TransportKind::kInProcess,
                                           TransportKind::kSocket));

}  // namespace
}  // namespace dbtf
