#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "common/random.h"
#include "dbtf/engine.h"
#include "dbtf/partition.h"
#include "dist/provision.h"
#include "test_util.h"

namespace dbtf {
namespace {

/// Attaches one worker per machine and stores every partition of
/// `unfolding` where the placement policy puts it: the resident state a
/// Session keeps, which RunFactorUpdate runs over.
Status Provision(Cluster& cluster, const PartitionedUnfolding& unfolding) {
  DBTF_RETURN_IF_ERROR(ProvisionWorkers(cluster));
  const std::vector<Partition>& partitions = unfolding.partitions();
  for (std::size_t p = 0; p < partitions.size(); ++p) {
    DBTF_RETURN_IF_ERROR(StorePartition(cluster, unfolding.mode(),
                                        static_cast<std::int64_t>(p),
                                        partitions[p], unfolding.shape()));
  }
  return Status::OK();
}

/// One factor update over the partitions `cluster` holds for `unfolding`.
Result<UpdateFactorStats> Update(Cluster& cluster,
                                 const PartitionedUnfolding& unfolding,
                                 BitMatrix* factor, const BitMatrix& mf,
                                 const BitMatrix& ms,
                                 const DbtfConfig& config) {
  return RunFactorUpdate(&cluster, unfolding.mode(), unfolding.shape(),
                         factor, mf, ms, config);
}

struct UpdateFixture {
  SparseTensor tensor;
  BitMatrix factor;
  BitMatrix mf;
  BitMatrix ms;
  std::unique_ptr<Cluster> cluster;
  DbtfConfig config;

  static UpdateFixture Make(std::int64_t di, std::int64_t dj, std::int64_t dk,
                            std::int64_t rank, std::int64_t partitions,
                            std::uint64_t seed, int v = 15) {
    UpdateFixture f;
    f.tensor = testing::RandomTensor(di, dj, dk, 0.12, seed);
    Rng rng(seed + 1);
    // Mode-1 update: factor A (I x R), mf = C (K x R), ms = B (J x R).
    f.factor = BitMatrix::Random(di, rank, 0.3, &rng);
    f.mf = BitMatrix::Random(dk, rank, 0.3, &rng);
    f.ms = BitMatrix::Random(dj, rank, 0.3, &rng);
    f.config.rank = rank;
    f.config.num_partitions = partitions;
    f.config.cache_group_size = v;
    f.config.cluster.num_machines = 2;
    f.config.cluster.num_threads = 2;
    f.cluster = std::move(Cluster::Create(f.config.cluster).value());
    return f;
  }
};

/// The distributed cached update must produce bit-identical factors and
/// errors to the naive dense reference, across ranks (including the
/// multi-group R > V path) and partition counts.
class UpdateEquivalence
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(UpdateEquivalence, MatchesReferenceUpdate) {
  const auto [rank, partitions, v] = GetParam();
  UpdateFixture f = UpdateFixture::Make(18, 23, 15, rank, partitions,
                                        static_cast<std::uint64_t>(rank), v);
  auto pu = PartitionedUnfolding::Build(f.tensor, Mode::kOne,
                                        f.config.num_partitions);
  ASSERT_TRUE(pu.ok());
  auto dense = DenseUnfold(f.tensor, Mode::kOne);
  ASSERT_TRUE(dense.ok());

  BitMatrix reference_factor = f.factor;
  const std::int64_t reference_error = testing::ReferenceUpdateFactor(
      *dense, &reference_factor, f.mf, f.ms);

  ASSERT_TRUE(Provision(*f.cluster, *pu).ok());
  auto stats = Update(*f.cluster, *pu, &f.factor, f.mf, f.ms, f.config);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(f.factor, reference_factor) << "bit-identical greedy decisions";
  EXPECT_EQ(stats->final_error, reference_error);
}

INSTANTIATE_TEST_SUITE_P(
    RankPartitionsV, UpdateEquivalence,
    ::testing::Values(std::make_tuple(1, 1, 15), std::make_tuple(3, 4, 15),
                      std::make_tuple(10, 2, 15), std::make_tuple(10, 7, 3),
                      std::make_tuple(17, 4, 5),  // multi-group cache
                      std::make_tuple(20, 3, 8),
                      std::make_tuple(24, 5, 24)));

TEST(RunFactorUpdate, CachingAblationIsBitIdentical) {
  UpdateFixture cached = UpdateFixture::Make(16, 20, 12, 8, 3, 5);
  UpdateFixture uncached = UpdateFixture::Make(16, 20, 12, 8, 3, 5);
  uncached.config.enable_caching = false;
  auto pu_c = PartitionedUnfolding::Build(cached.tensor, Mode::kOne, 3);
  auto pu_u = PartitionedUnfolding::Build(uncached.tensor, Mode::kOne, 3);
  ASSERT_TRUE(pu_c.ok() && pu_u.ok());
  ASSERT_TRUE(Provision(*cached.cluster, *pu_c).ok());
  ASSERT_TRUE(Provision(*uncached.cluster, *pu_u).ok());
  auto stats_c = Update(*cached.cluster, *pu_c, &cached.factor, cached.mf,
                        cached.ms, cached.config);
  auto stats_u = Update(*uncached.cluster, *pu_u, &uncached.factor,
                        uncached.mf, uncached.ms, uncached.config);
  ASSERT_TRUE(stats_c.ok() && stats_u.ok());
  EXPECT_EQ(cached.factor, uncached.factor);
  EXPECT_EQ(stats_c->final_error, stats_u->final_error);
  EXPECT_GT(stats_c->cache_bytes, 0);
  EXPECT_EQ(stats_u->cache_bytes, 0);
}

TEST(RunFactorUpdate, GroundTruthFactorsReachZeroError) {
  // Build a tensor exactly from factors, zero the one being updated, and the
  // update must recover a zero-error factor.
  Rng rng(31);
  const BitMatrix a = BitMatrix::Random(14, 5, 0.25, &rng);
  const BitMatrix b = BitMatrix::Random(16, 5, 0.25, &rng);
  const BitMatrix c = BitMatrix::Random(12, 5, 0.25, &rng);
  auto x = ReconstructTensor(a, b, c);
  ASSERT_TRUE(x.ok());
  DbtfConfig config;
  config.rank = 5;
  config.num_partitions = 3;
  config.cluster.num_machines = 2;
  config.cluster.num_threads = 1;
  auto cluster = Cluster::Create(config.cluster);
  ASSERT_TRUE(cluster.ok());
  auto pu = PartitionedUnfolding::Build(*x, Mode::kOne, 3);
  ASSERT_TRUE(pu.ok());
  ASSERT_TRUE(Provision(**cluster, *pu).ok());
  // Starting AT the ground truth, the update may never leave zero error
  // (the current value is always among the candidates).
  BitMatrix factor = a;
  auto stats = Update(**cluster, *pu, &factor, c, b, config);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->final_error, 0);
  // Starting from all-zero, one greedy sweep must land very close to zero
  // (greedy column order can leave a few residual cells).
  BitMatrix from_zero(14, 5);
  auto stats_zero = Update(**cluster, *pu, &from_zero, c, b, config);
  ASSERT_TRUE(stats_zero.ok());
  EXPECT_LE(stats_zero->final_error, x->NumNonZeros() / 20);
}

TEST(RunFactorUpdate, ErrorNeverIncreasesAcrossRepeatedCalls) {
  UpdateFixture f = UpdateFixture::Make(20, 24, 18, 6, 4, 9);
  auto pu = PartitionedUnfolding::Build(f.tensor, Mode::kOne, 4);
  ASSERT_TRUE(pu.ok());
  ASSERT_TRUE(Provision(*f.cluster, *pu).ok());
  std::int64_t previous = -1;
  for (int round = 0; round < 4; ++round) {
    auto stats = Update(*f.cluster, *pu, &f.factor, f.mf, f.ms, f.config);
    ASSERT_TRUE(stats.ok());
    if (previous >= 0) {
      EXPECT_LE(stats->final_error, previous);
    }
    previous = stats->final_error;
  }
}

TEST(RunFactorUpdate, ChargesCommunication) {
  UpdateFixture f = UpdateFixture::Make(16, 16, 16, 4, 2, 3);
  auto pu = PartitionedUnfolding::Build(f.tensor, Mode::kOne, 2);
  ASSERT_TRUE(pu.ok());
  ASSERT_TRUE(Provision(*f.cluster, *pu).ok());
  const CommSnapshot before = f.cluster->comm().Snapshot();
  auto stats = Update(*f.cluster, *pu, &f.factor, f.mf, f.ms, f.config);
  ASSERT_TRUE(stats.ok());
  const CommSnapshot snap = f.cluster->comm().Snapshot().Since(before);
  EXPECT_GT(snap.broadcast_bytes, 0);
  EXPECT_GT(snap.collect_bytes, 0);
  // One collect per column update.
  EXPECT_EQ(snap.collect_events, f.config.rank);
}

TEST(RunFactorUpdate, ValidatesShapes) {
  UpdateFixture f = UpdateFixture::Make(16, 16, 16, 4, 2, 11);
  auto pu = PartitionedUnfolding::Build(f.tensor, Mode::kOne, 2);
  ASSERT_TRUE(pu.ok());
  ASSERT_TRUE(Provision(*f.cluster, *pu).ok());
  BitMatrix wrong_rank(16, 5);
  EXPECT_FALSE(
      Update(*f.cluster, *pu, &wrong_rank, f.mf, f.ms, f.config).ok());
  BitMatrix wrong_rows(15, 4);
  EXPECT_FALSE(
      Update(*f.cluster, *pu, &wrong_rows, f.mf, f.ms, f.config).ok());
  BitMatrix wrong_ms(17, 4);
  EXPECT_FALSE(
      Update(*f.cluster, *pu, &f.factor, f.mf, wrong_ms, f.config).ok());
}

}  // namespace
}  // namespace dbtf
