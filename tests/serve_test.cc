#include "serve/serve_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "common/bitops.h"
#include "common/kernels/kernels.h"
#include "common/random.h"
#include "common/serde.h"
#include "dist/cluster.h"
#include "dist/fault.h"
#include "dist/provision.h"
#include "dist/transport/transport.h"
#include "dist/transport/wire.h"
#include "fake_endpoint.h"
#include "serve/workload.h"
#include "tensor/bit_matrix.h"
#include "tensor/unfold.h"

namespace dbtf {
namespace {

constexpr std::int64_t kDimI = 20;
constexpr std::int64_t kDimJ = 24;
constexpr std::int64_t kDimK = 16;
constexpr std::int64_t kRank = 5;

ClusterConfig InprocConfig(int machines) {
  ClusterConfig config;
  config.num_machines = machines;
  config.num_threads = 2;
  return config;
}

ClusterConfig SocketConfig(int machines) {
  ClusterConfig config = InprocConfig(machines);
  config.transport.kind = TransportKind::kSocket;
  return config;
}

BitMatrix RandomFactor(Rng* rng, std::int64_t rows, std::int64_t rank) {
  BitMatrix m = BitMatrix::Create(rows, rank).value();
  for (std::int64_t r = 0; r < rows; ++r) {
    // Dense enough that membership hits both answers across the scan.
    m.SetRowMask64(r, rng->NextUint64() & rng->NextUint64() &
                          ((std::uint64_t{1} << rank) - 1));
  }
  return m;
}

/// Fresh cluster + loaded engine over factors drawn from `seed`. The same
/// seed always plants the same factors, which is what lets two engines on
/// different transports (or kernel backends) be compared byte for byte.
struct Serving {
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<ServeEngine> engine;
};

Serving MakeServing(ClusterConfig config, std::uint64_t seed) {
  Serving s;
  auto cluster = Cluster::Create(config);
  EXPECT_TRUE(cluster.ok()) << cluster.status().ToString();
  s.cluster = std::move(*cluster);
  EXPECT_TRUE(ProvisionWorkers(*s.cluster).ok());
  Rng rng(seed);
  auto engine =
      ServeEngine::Create(s.cluster.get(), RandomFactor(&rng, kDimI, kRank),
                          RandomFactor(&rng, kDimJ, kRank),
                          RandomFactor(&rng, kDimK, kRank));
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  s.engine = std::move(*engine);
  EXPECT_TRUE(s.engine->Load().ok());
  return s;
}

/// Which concepts explain cell (i, j, k) in the dense oracle — the Boolean
/// sum the paper factorizes, recomputed bit by bit from the driver copies.
std::uint64_t OracleExplain(const ServeEngine& engine, std::int64_t i,
                            std::int64_t j, std::int64_t k) {
  std::uint64_t mask = 0;
  for (std::int64_t r = 0; r < engine.rank(); ++r) {
    if (engine.factor(0).Get(i, r) && engine.factor(1).Get(j, r) &&
        engine.factor(2).Get(k, r)) {
      mask |= std::uint64_t{1} << r;
    }
  }
  return mask;
}

std::uint64_t Fnv1a(std::uint64_t hash, const std::vector<std::uint8_t>& bytes) {
  for (const std::uint8_t byte : bytes) {
    hash ^= byte;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

/// Replays a fixed mixed workload and folds every response into one digest.
/// Generations are checked against the engine's committed triple, then
/// normalized out: their raw values come from a process-global counter, so
/// they differ run to run even when every answer is identical.
std::uint64_t CanonicalDigest(ServeEngine* engine, int ops) {
  WorkloadOptions options;
  options.dims[0] = kDimI;
  options.dims[1] = kDimJ;
  options.dims[2] = kDimK;
  options.rank = kRank;
  options.seed = 99;
  options.skew = SkewKind::kWeblog;
  EXPECT_TRUE(options.Validate().ok());
  WorkloadGenerator gen(options);
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  for (int n = 0; n < ops; ++n) {
    const ServeOp op = gen.Next();
    QueryResponse response;
    const Status status = RunOp(engine, op, &response);
    EXPECT_TRUE(status.ok()) << status.ToString();
    if (op.kind == ServeOpKind::kUpdate) continue;
    const std::array<std::uint64_t, 3> committed = engine->generations();
    EXPECT_EQ(response.generations,
              (std::vector<std::uint64_t>(committed.begin(), committed.end())));
    response.generations = {0, 1, 2};
    ByteWriter writer;
    EncodeQueryResponse(response, &writer);
    digest = Fnv1a(digest, writer.bytes());
  }
  return digest;
}

// --- Construction and preconditions -----------------------------------------

TEST(ServeEngine, CreateValidatesTheFactorSet) {
  auto cluster = Cluster::Create(InprocConfig(1));
  ASSERT_TRUE(cluster.ok());
  Rng rng(3);
  // Mismatched column counts across the triple.
  auto mismatched = ServeEngine::Create(
      cluster->get(), RandomFactor(&rng, 8, 4), RandomFactor(&rng, 8, 3),
      RandomFactor(&rng, 8, 4));
  EXPECT_EQ(mismatched.status().code(), StatusCode::kInvalidArgument);
  // Rank 0 has no concepts to serve.
  auto empty =
      ServeEngine::Create(cluster->get(), BitMatrix::Create(8, 0).value(),
                          BitMatrix::Create(8, 0).value(),
                          BitMatrix::Create(8, 0).value());
  EXPECT_EQ(empty.status().code(), StatusCode::kInvalidArgument);
}

TEST(ServeEngine, QueriesBeforeLoadAreRejected) {
  auto cluster = Cluster::Create(InprocConfig(1));
  ASSERT_TRUE(cluster.ok());
  ASSERT_TRUE(ProvisionWorkers(**cluster).ok());
  Rng rng(4);
  auto engine = ServeEngine::Create(
      cluster->get(), RandomFactor(&rng, kDimI, kRank),
      RandomFactor(&rng, kDimJ, kRank), RandomFactor(&rng, kDimK, kRank));
  ASSERT_TRUE(engine.ok());
  QueryResponse response;
  EXPECT_EQ((*engine)->Membership(0, 0, 0, &response).code(),
            StatusCode::kFailedPrecondition);
}

TEST(ServeEngine, RejectsOutOfRangeQueryArguments) {
  Serving s = MakeServing(InprocConfig(1), 11);
  QueryResponse response;
  EXPECT_EQ(s.engine->Membership(-1, 0, 0, &response).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(s.engine->Membership(kDimI, 0, 0, &response).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(s.engine->Fiber(Mode::kOne, kDimJ, 0, &response).code(),
            StatusCode::kInvalidArgument);
  // Top-R slice must be exactly the mode's dimension, padded with zeros.
  std::vector<BitWord> slice(WordsForBits(kDimI), ~BitWord{0});
  EXPECT_EQ(s.engine
                ->TopConcepts(Mode::kOne, slice, kDimI, /*top_r=*/3, &response)
                .code(),
            StatusCode::kInvalidArgument)
      << "tail padding bits must be zero";
  slice.back() &= (BitWord{1} << (kDimI % kBitsPerWord)) - 1;
  EXPECT_EQ(s.engine
                ->TopConcepts(Mode::kOne, slice, kDimI, /*top_r=*/65, &response)
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(
      s.engine->TopConcepts(Mode::kOne, slice, kDimI, /*top_r=*/3, &response)
          .ok());
}

// --- Oracle equivalence -----------------------------------------------------

TEST(ServeEngine, MembershipMatchesTheDenseOracleEverywhere) {
  Serving s = MakeServing(InprocConfig(2), 21);
  std::int64_t members = 0;
  for (std::int64_t i = 0; i < kDimI; ++i) {
    for (std::int64_t j = 0; j < kDimJ; ++j) {
      for (std::int64_t k = 0; k < kDimK; ++k) {
        QueryResponse response;
        ASSERT_TRUE(s.engine->Membership(i, j, k, &response).ok());
        const std::uint64_t expect = OracleExplain(*s.engine, i, j, k);
        ASSERT_EQ(response.explain_mask, expect)
            << "(" << i << "," << j << "," << k << ")";
        ASSERT_EQ(response.member, expect != 0);
        members += response.member ? 1 : 0;
      }
    }
  }
  // The planted density must exercise both answers, or the scan proves less
  // than it claims.
  EXPECT_GT(members, 0);
  EXPECT_LT(members, kDimI * kDimJ * kDimK);
  EXPECT_EQ(s.engine->stats().queries_answered, kDimI * kDimJ * kDimK);
}

TEST(ServeEngine, FiberMatchesTheDenseOracleInEveryMode) {
  Serving s = MakeServing(InprocConfig(2), 22);
  const std::array<std::int64_t, 3> dims = {kDimI, kDimJ, kDimK};
  for (const Mode mode : {Mode::kOne, Mode::kTwo, Mode::kThree}) {
    const int free = static_cast<int>(mode) - 1;
    const std::int64_t first_dim = dims[(free + 1) % 3];
    const std::int64_t second_dim = dims[(free + 2) % 3];
    for (std::int64_t a = 0; a < first_dim; ++a) {
      for (std::int64_t b = 0; b < second_dim; ++b) {
        QueryResponse response;
        ASSERT_TRUE(s.engine->Fiber(mode, a, b, &response).ok());
        ASSERT_EQ(response.fiber_len, dims[free]);
        ASSERT_EQ(response.fiber_bits.size(),
                  WordsForBits(static_cast<std::size_t>(dims[free])));
        for (std::int64_t x = 0; x < dims[free]; ++x) {
          // Rotate (free, a, b) back into (i, j, k) cyclic order.
          std::array<std::int64_t, 3> cell;
          cell[free] = x;
          cell[(free + 1) % 3] = a;
          cell[(free + 2) % 3] = b;
          const bool expect =
              OracleExplain(*s.engine, cell[0], cell[1], cell[2]) != 0;
          const bool got = (response.fiber_bits[static_cast<std::size_t>(x) /
                                                kBitsPerWord] >>
                            (static_cast<std::size_t>(x) % kBitsPerWord)) &
                           1;
          ASSERT_EQ(got, expect)
              << "mode " << static_cast<int>(mode) << " fiber (" << a << ","
              << b << ") bit " << x;
        }
      }
    }
  }
}

TEST(ServeEngine, TopConceptsMatchesTheDenseOracle) {
  Serving s = MakeServing(InprocConfig(2), 23);
  Rng rng(5);
  const std::array<std::int64_t, 3> dims = {kDimI, kDimJ, kDimK};
  for (const Mode mode : {Mode::kOne, Mode::kTwo, Mode::kThree}) {
    const int slot = static_cast<int>(mode) - 1;
    const std::int64_t dim = dims[slot];
    for (int trial = 0; trial < 8; ++trial) {
      std::vector<BitWord> slice(WordsForBits(static_cast<std::size_t>(dim)));
      for (BitWord& word : slice) word = rng.NextUint64();
      if (dim % kBitsPerWord != 0) {
        slice.back() &= (BitWord{1} << (dim % kBitsPerWord)) - 1;
      }
      const std::int64_t top_r = 1 + static_cast<std::int64_t>(
                                         rng.NextBounded(kRank + 1));
      QueryResponse response;
      ASSERT_TRUE(
          s.engine->TopConcepts(mode, slice, dim, top_r, &response).ok());

      // Score every concept against the slice on the driver copy, then rank
      // the same way the worker documents: score descending, id ascending.
      std::vector<std::pair<std::int64_t, std::int64_t>> ranked;  // (-score, id)
      for (std::int64_t r = 0; r < kRank; ++r) {
        std::int64_t score = 0;
        for (std::int64_t x = 0; x < dim; ++x) {
          const bool in_slice = (slice[static_cast<std::size_t>(x) /
                                       kBitsPerWord] >>
                                 (static_cast<std::size_t>(x) % kBitsPerWord)) &
                                1;
          score += (in_slice && s.engine->factor(slot).Get(x, r)) ? 1 : 0;
        }
        ranked.emplace_back(-score, r);
      }
      std::sort(ranked.begin(), ranked.end());
      const std::size_t keep = static_cast<std::size_t>(
          std::min<std::int64_t>(kRank, top_r));
      ASSERT_EQ(response.concept_ids.size(), keep);
      ASSERT_EQ(response.concept_scores.size(), keep);
      for (std::size_t n = 0; n < keep; ++n) {
        EXPECT_EQ(response.concept_ids[n], ranked[n].second);
        EXPECT_EQ(response.concept_scores[n], -ranked[n].first);
      }
    }
  }
}

// --- Byte identity across transports and kernel backends --------------------

TEST(ServeEngine, InprocAndSocketTransportsAnswerIdentically) {
  Serving inproc = MakeServing(InprocConfig(2), 31);
  const std::uint64_t inproc_digest = CanonicalDigest(inproc.engine.get(), 200);
  Serving socket = MakeServing(SocketConfig(2), 31);
  const std::uint64_t socket_digest = CanonicalDigest(socket.engine.get(), 200);
  EXPECT_EQ(inproc_digest, socket_digest)
      << "the wire must not change a single answer byte";
  socket.cluster->DetachWorkers();
}

TEST(ServeEngine, PortableAndActiveKernelsAnswerIdentically) {
  const KernelBackend active = ActiveKernelBackend();
  std::uint64_t active_digest = 0;
  {
    Serving s = MakeServing(InprocConfig(2), 32);
    active_digest = CanonicalDigest(s.engine.get(), 200);
  }
  ASSERT_TRUE(SetKernelBackend(KernelBackend::kPortable).ok());
  std::uint64_t portable_digest = 0;
  {
    Serving s = MakeServing(InprocConfig(2), 32);
    portable_digest = CanonicalDigest(s.engine.get(), 200);
  }
  ASSERT_TRUE(SetKernelBackend(active).ok());
  EXPECT_EQ(portable_digest, active_digest)
      << "SIMD dispatch must not change a single answer byte";
}

// --- Shard routing ----------------------------------------------------------

TEST(ServeEngine, QueriesRouteToShardKeyModMachines) {
  constexpr int kMachines = 4;
  ClusterConfig config = InprocConfig(kMachines);
  auto cluster = Cluster::Create(config);
  ASSERT_TRUE(cluster.ok());
  std::vector<std::shared_ptr<FakeEndpoint>> fakes;
  for (int m = 0; m < kMachines; ++m) {
    fakes.push_back(std::make_shared<FakeEndpoint>(m));
    ASSERT_TRUE((*cluster)->AttachEndpoint(m, fakes.back()).ok());
  }
  Rng rng(71);
  auto engine = ServeEngine::Create(
      cluster->get(), RandomFactor(&rng, kDimI, kRank),
      RandomFactor(&rng, kDimJ, kRank), RandomFactor(&rng, kDimK, kRank));
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->Load().ok());

  // A membership query's shard key is its coordinate sum.
  std::vector<int> expected(kMachines, 0);
  for (std::int64_t key = 0; key < 14; ++key) {
    QueryResponse response;
    ASSERT_TRUE((*engine)->Membership(key, 0, 0, &response).ok());
    ++expected[static_cast<std::size_t>(key % kMachines)];
  }
  EXPECT_EQ(expected, (std::vector<int>{4, 4, 3, 3}));
  for (int m = 0; m < kMachines; ++m) {
    EXPECT_EQ(fakes[static_cast<std::size_t>(m)]->deliveries(
                  MessageKind::kCollect),
              expected[static_cast<std::size_t>(m)])
        << "machine " << m;
  }
  (*cluster)->DetachWorkers();
}

// --- Fault tolerance --------------------------------------------------------

TEST(ServeEngine, TransientQueryLossIsRetriedTransparently) {
  ClusterConfig config = InprocConfig(2);
  config.fault_plan =
      FaultPlan::Parse("0:collect:transient@1,1:collect:transient@1").value();
  Serving s = MakeServing(config, 41);
  // Every machine's first query delivery fails; the retry budget absorbs it
  // without the engine ever seeing an error.
  for (std::int64_t i = 0; i < 4; ++i) {
    for (std::int64_t j = 0; j < 4; ++j) {
      QueryResponse response;
      ASSERT_TRUE(s.engine->Membership(i, j, 0, &response).ok());
      EXPECT_EQ(response.explain_mask, OracleExplain(*s.engine, i, j, 0));
    }
  }
  EXPECT_EQ(s.engine->stats().failovers, 0);
}

TEST(ServeEngine, PermanentMachineLossFailsOverToASurvivor) {
  ClusterConfig config = InprocConfig(2);
  // Machine 1 dies for good on its second query delivery.
  config.fault_plan = FaultPlan::Parse("1:collect:crash@2").value();
  Serving s = MakeServing(config, 42);
  std::int64_t checked = 0;
  for (std::int64_t i = 0; i < kDimI; ++i) {
    for (std::int64_t j = 0; j < 8; ++j) {
      QueryResponse response;
      ASSERT_TRUE(s.engine->Membership(i, j, 3, &response).ok())
          << "survivor must keep answering after the crash";
      ASSERT_EQ(response.explain_mask, OracleExplain(*s.engine, i, j, 3));
      ++checked;
    }
  }
  EXPECT_EQ(s.engine->stats().queries_answered, checked);
  EXPECT_GT(s.engine->stats().failovers, 0)
      << "half the shard keys map to the dead machine";
  EXPECT_GT(s.engine->stats().rebroadcasts, 0)
      << "failover re-ships the factors before trusting a survivor";
  // Updates commit against the survivors too, and queries observe them.
  std::vector<ServeColumnUpdate> batch(1);
  batch[0].slot = 0;
  batch[0].column = 0;
  batch[0].bits.assign(WordsForBits(kDimI), 0);
  ASSERT_TRUE(s.engine->ApplyUpdate(batch).ok());
  QueryResponse response;
  ASSERT_TRUE(s.engine->Membership(1, 2, 3, &response).ok());
  EXPECT_EQ(response.explain_mask, OracleExplain(*s.engine, 1, 2, 3));
}

// --- Update atomicity and generation consistency ----------------------------

TEST(ServeEngine, UpdatesCommitAtomicallyAndReadsAreNeverTorn) {
  Serving s = MakeServing(InprocConfig(2), 51);
  Rng rng(9);
  std::set<std::array<std::uint64_t, 3>> committed;
  committed.insert(s.engine->generations());
  for (int round = 0; round < 6; ++round) {
    // Each batch touches two slots at once: the torn read a worker could
    // serve — new A with old C — is a triple that was never committed.
    std::vector<ServeColumnUpdate> batch(2);
    batch[0].slot = 0;
    batch[0].column = static_cast<std::int64_t>(rng.NextBounded(kRank));
    batch[0].bits.assign(WordsForBits(kDimI), 0);
    batch[0].bits[0] = rng.NextUint64() & ((BitWord{1} << kDimI) - 1);
    batch[1].slot = 2;
    batch[1].column = static_cast<std::int64_t>(rng.NextBounded(kRank));
    batch[1].bits.assign(WordsForBits(kDimK), 0);
    batch[1].bits[0] = rng.NextUint64() & ((BitWord{1} << kDimK) - 1);
    const std::array<std::uint64_t, 3> before = s.engine->generations();
    ASSERT_TRUE(s.engine->ApplyUpdate(batch).ok());
    const std::array<std::uint64_t, 3> after = s.engine->generations();
    EXPECT_NE(after[0], before[0]);
    EXPECT_EQ(after[1], before[1]) << "slot 1 was not in the batch";
    EXPECT_NE(after[2], before[2]);
    committed.insert(after);

    // Reads on every machine observe exactly the committed triple — and the
    // answers already reflect the batch.
    for (std::int64_t i = 0; i < 4; ++i) {
      QueryResponse response;
      ASSERT_TRUE(s.engine->Membership(i, i, i, &response).ok());
      ASSERT_EQ(response.generations.size(), 3u);
      std::array<std::uint64_t, 3> observed;
      std::copy(response.generations.begin(), response.generations.end(),
                observed.begin());
      EXPECT_EQ(observed, after);
      EXPECT_EQ(committed.count(observed), 1u)
          << "a torn triple was never committed";
      EXPECT_EQ(response.explain_mask, OracleExplain(*s.engine, i, i, i));
    }
  }
  EXPECT_EQ(s.engine->stats().updates_applied, 6);
}

TEST(ServeEngine, AMachineThatMissesAnUpdateIsCaughtUpBeforeItAnswers) {
  for (const TransportKind transport :
       {TransportKind::kInProcess, TransportKind::kSocket}) {
    SCOPED_TRACE(TransportKindName(transport));
    ClusterConfig config = InprocConfig(2);
    config.transport.kind = transport;
    // Every attempt of machine 1's second broadcast fails: the first update
    // exhausts its retries there while machine 1 stays attached.
    config.fault_plan = FaultPlan::Parse("1:broadcast:transient@2x3").value();
    Serving s = MakeServing(config, 53);
    Rng rng(10);
    for (int round = 0; round < 4; ++round) {
      // Always slot 0, so each update's column delta builds on the last one.
      std::vector<ServeColumnUpdate> batch(1);
      batch[0].slot = 0;
      batch[0].column = static_cast<std::int64_t>(rng.NextBounded(kRank));
      batch[0].bits.assign(WordsForBits(kDimI), 0);
      batch[0].bits[0] = rng.NextUint64() & ((BitWord{1} << kDimI) - 1);
      ASSERT_TRUE(s.engine->ApplyUpdate(batch).ok()) << "round " << round;
      const std::array<std::uint64_t, 3> committed = s.engine->generations();
      // Coordinate sums 0..19 cover both machines' shards.
      for (std::int64_t i = 0; i < kDimI; ++i) {
        QueryResponse response;
        ASSERT_TRUE(s.engine->Membership(i, 0, 0, &response).ok());
        EXPECT_EQ(response.generations,
                  (std::vector<std::uint64_t>(committed.begin(),
                                              committed.end())))
            << "round " << round << ", cell " << i;
        EXPECT_EQ(response.explain_mask, OracleExplain(*s.engine, i, 0, 0))
            << "round " << round << ", cell " << i;
      }
    }
    EXPECT_EQ(s.engine->stats().updates_applied, 4);
    EXPECT_EQ(s.engine->stats().failovers, 0);
    s.cluster->DetachWorkers();
  }
}

TEST(ServeEngine, AFailedUpdateCommitsNothingAndRollsEveryMachineBack) {
  constexpr int kMachines = 2;
  auto cluster = Cluster::Create(InprocConfig(kMachines));
  ASSERT_TRUE(cluster.ok());
  std::vector<std::shared_ptr<FakeEndpoint>> fakes;
  for (int m = 0; m < kMachines; ++m) {
    fakes.push_back(std::make_shared<FakeEndpoint>(m));
    ASSERT_TRUE((*cluster)->AttachEndpoint(m, fakes.back()).ok());
  }
  Rng rng(72);
  auto engine = ServeEngine::Create(
      cluster->get(), RandomFactor(&rng, kDimI, kRank),
      RandomFactor(&rng, kDimJ, kRank), RandomFactor(&rng, kDimK, kRank));
  ASSERT_TRUE(engine.ok());
  ServeEngine& e = **engine;
  ASSERT_TRUE(e.Load().ok());
  const std::array<std::uint64_t, 3> before = e.generations();
  const BitMatrix a_before = e.factor(0);

  // Machine 1 refuses the update for good; machine 0 takes it, so it is
  // ahead of a batch that cannot commit.
  fakes[1]->Fail(MessageKind::kBroadcast, Status::Internal("disk on fire"));
  std::vector<ServeColumnUpdate> batch(1);
  batch[0].slot = 0;
  batch[0].column = 1;
  batch[0].bits.assign(WordsForBits(kDimI), 0);
  for (std::int64_t r = 0; r < kDimI; ++r) {
    if (!a_before.Get(r, 1)) batch[0].bits[0] |= BitWord{1} << r;
  }
  EXPECT_EQ(e.ApplyUpdate(batch).code(), StatusCode::kInternal);
  EXPECT_EQ(e.generations(), before);
  EXPECT_EQ(e.factor(0), a_before) << "the driver copy rolls back";
  EXPECT_EQ(e.stats().updates_applied, 0);
  // Load, the update, then the catch-up at the committed generations.
  EXPECT_EQ(fakes[0]->deliveries(MessageKind::kBroadcast), 3);
  QueryResponse response;
  ASSERT_TRUE(e.Membership(0, 0, 0, &response).ok());  // key 0: machine 0
  EXPECT_EQ(response.generations,
            (std::vector<std::uint64_t>(before.begin(), before.end())))
      << "machine 0 was rolled back to the committed triple";
  EXPECT_EQ(fakes[0]->deliveries(MessageKind::kCollect), 1)
      << "answered at the committed triple on the first ask";

  // Once machine 1 accepts broadcasts again, the same batch commits.
  fakes[1]->Fail(MessageKind::kBroadcast, Status::OK());
  ASSERT_TRUE(e.ApplyUpdate(batch).ok());
  EXPECT_NE(e.generations()[0], before[0]);
  EXPECT_EQ(e.generations()[1], before[1]);
  (*cluster)->DetachWorkers();
}

TEST(ServeEngine, RejectedUpdatesLeaveStateUntouched) {
  Serving s = MakeServing(InprocConfig(1), 52);
  const std::array<std::uint64_t, 3> before = s.engine->generations();
  std::vector<ServeColumnUpdate> batch(1);
  batch[0].slot = 3;
  batch[0].bits.assign(WordsForBits(kDimI), 0);
  EXPECT_EQ(s.engine->ApplyUpdate(batch).code(),
            StatusCode::kInvalidArgument);
  batch[0].slot = 0;
  batch[0].column = kRank;
  EXPECT_EQ(s.engine->ApplyUpdate(batch).code(),
            StatusCode::kInvalidArgument);
  batch[0].column = 0;
  batch[0].bits.pop_back();
  EXPECT_EQ(s.engine->ApplyUpdate(batch).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(s.engine->generations(), before);
  EXPECT_EQ(s.engine->stats().updates_applied, 0);
}

// --- CommStats ledger -------------------------------------------------------

TEST(ServeEngine, QueryBytesLandOnTheClusterLedger) {
  Serving s = MakeServing(InprocConfig(1), 61);
  const CommSnapshot before = s.cluster->comm().Snapshot();
  QueryResponse response;
  ASSERT_TRUE(s.engine->Membership(1, 2, 3, &response).ok());
  const CommSnapshot after = s.cluster->comm().Snapshot();
  EXPECT_EQ(after.query_events, before.query_events + 1);
  // One query charges exactly the request plus the response wire bytes. A
  // membership request's size does not depend on its field values, so a
  // default-filled twin prices the request side.
  QueryRequest twin;
  twin.kind = QueryKind::kMembership;
  EXPECT_EQ(after.query_bytes - before.query_bytes,
            twin.WireBytes() + response.WireBytes());
  EXPECT_NE(after.ToString().find("query="), std::string::npos)
      << "the lane must be visible in the printed ledger";

  // Updates ride the broadcast lane: the FactorDelta bytes are visible too.
  std::vector<ServeColumnUpdate> batch(1);
  batch[0].slot = 1;
  batch[0].column = 0;
  batch[0].bits.assign(WordsForBits(kDimJ), 0);
  ASSERT_TRUE(s.engine->ApplyUpdate(batch).ok());
  const CommSnapshot updated = s.cluster->comm().Snapshot();
  EXPECT_GT(updated.broadcast_bytes, after.broadcast_bytes);
}

}  // namespace
}  // namespace dbtf
