#include "dbtf/engine.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/checkpoint.h"
#include "common/serde.h"
#include "dbtf/dbtf.h"
#include "dbtf/session.h"
#include "dist/fault.h"
#include "generator/generator.h"
#include "modelselect/rank_selection.h"

namespace dbtf {
namespace {

DbtfConfig SmallConfig(std::int64_t rank = 4) {
  DbtfConfig config;
  config.rank = rank;
  config.max_iterations = 8;
  config.num_initial_sets = 2;
  config.num_partitions = 4;
  config.seed = 17;
  config.cluster.num_machines = 2;
  config.cluster.num_threads = 2;
  return config;
}

PlantedTensor MakePlanted(std::int64_t dim, std::int64_t rank,
                          std::uint64_t seed) {
  PlantedSpec spec;
  spec.dim_i = dim;
  spec.dim_j = dim + 4;
  spec.dim_k = dim - 4;
  spec.rank = rank;
  spec.factor_density = 0.18;
  spec.seed = seed;
  return GeneratePlanted(spec).value();
}

void ExpectSameComm(const CommSnapshot& got, const CommSnapshot& want) {
  EXPECT_EQ(got.shuffle_bytes, want.shuffle_bytes);
  EXPECT_EQ(got.broadcast_bytes, want.broadcast_bytes);
  EXPECT_EQ(got.collect_bytes, want.collect_bytes);
  EXPECT_EQ(got.shuffle_events, want.shuffle_events);
  EXPECT_EQ(got.broadcast_events, want.broadcast_events);
  EXPECT_EQ(got.collect_events, want.collect_events);
}

/// The tentpole acceptance criterion: on a fixed seed, a session run and the
/// Dbtf::Factorize wrapper produce bitwise-identical factors and an
/// identical communication snapshot.
TEST(Session, MatchesWrapperBitwiseAndOnTheLedger) {
  const PlantedTensor p = MakePlanted(24, 4, 41);
  const DbtfConfig config = SmallConfig();

  auto wrapper = Dbtf::Factorize(p.tensor, config);
  ASSERT_TRUE(wrapper.ok()) << wrapper.status().ToString();

  auto session = Session::Create(p.tensor, config);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  auto direct = (*session)->Factorize(config);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();

  EXPECT_EQ(direct->a, wrapper->a);
  EXPECT_EQ(direct->b, wrapper->b);
  EXPECT_EQ(direct->c, wrapper->c);
  EXPECT_EQ(direct->iteration_errors, wrapper->iteration_errors);
  EXPECT_EQ(direct->final_error, wrapper->final_error);
  EXPECT_EQ(direct->cells_changed, wrapper->cells_changed);
  EXPECT_EQ(direct->cache_entries, wrapper->cache_entries);
  EXPECT_EQ(direct->cache_bytes, wrapper->cache_bytes);
  ExpectSameComm(direct->comm, wrapper->comm);
}

/// The ledger is charged by construction at the routing layer; its totals
/// must match the paper's closed forms (Lemmas 6-7) computed from the run's
/// own counts.
TEST(Session, LedgerMatchesAnalyticFormulas) {
  const PlantedTensor p = MakePlanted(24, 4, 42);
  const DbtfConfig config = SmallConfig();
  auto session = Session::Create(p.tensor, config);
  ASSERT_TRUE(session.ok());
  auto r = (*session)->Factorize(config);
  ASSERT_TRUE(r.ok());

  // Shuffle: every non-zero of the three unfoldings crosses the wire once
  // as a 3-coordinate record.
  EXPECT_EQ(r->comm.shuffle_events, 1);
  EXPECT_EQ(r->comm.shuffle_bytes,
            3 * p.tensor.NumNonZeros() *
                static_cast<std::int64_t>(3 * sizeof(std::uint32_t)));

  // One factor update = 1 broadcast event + R collect events. Iteration 1
  // runs L sets x 3 modes; iterations 2..T run 3 modes each.
  const std::int64_t updates =
      3 * (config.num_initial_sets + (r->iterations_run - 1));
  EXPECT_EQ(r->comm.broadcast_events, updates);
  EXPECT_EQ(r->comm.collect_events, updates * config.rank);

  // Collect volume (Lemma 7, compact replies): per column, every machine
  // sends one reply of a row count, a block length, one zigzag varint per
  // row, and three zigzag scalars. A difference takes at least one byte and
  // at most the varint of 2 * (cells per unfolding row), since each
  // candidate's row error is bounded by that row's cell count.
  const std::int64_t dims[3] = {p.tensor.dim_i(), p.tensor.dim_j(),
                                p.tensor.dim_k()};
  const std::int64_t machines = config.cluster.num_machines;
  std::int64_t lower = 0;
  std::int64_t upper = 0;
  for (int mode = 0; mode < 3; ++mode) {
    const std::int64_t rows = dims[mode];
    const std::int64_t cells = dims[(mode + 1) % 3] * dims[(mode + 2) % 3];
    const std::int64_t diff_max = VarintBytes(ZigZagEncode(cells));
    lower += 2 * VarintBytes(rows) + rows + 3;
    upper += VarintBytes(rows) + VarintBytes(rows * diff_max) +
             rows * diff_max + VarintBytes(ZigZagEncode(rows * cells)) +
             2 * kMaxVarintBytes;
  }
  const std::int64_t replies_per_mode = (updates / 3) * config.rank * machines;
  EXPECT_GE(r->comm.collect_bytes, replies_per_mode * lower);
  EXPECT_LE(r->comm.collect_bytes, replies_per_mode * upper);
  // The two-int64-per-row-per-partition form this replaced was at least 8x
  // larger per row on this configuration (2 machines, 4 partitions).
  std::int64_t dense = 0;
  for (int mode = 0; mode < 3; ++mode) {
    dense += (*session)->partitions_used(static_cast<Mode>(mode + 1)) *
             dims[mode] * 2 * static_cast<std::int64_t>(sizeof(std::int64_t));
  }
  EXPECT_LT(8 * r->comm.collect_bytes, (updates / 3) * config.rank * dense);
}

/// A session partitions and shuffles once; later runs reuse the resident
/// partitions. Each run still *reports* the shuffle (so results stay
/// comparable), while the raw cluster ledger records it exactly once.
TEST(Session, ReuseAcrossRanksShufflesOnce) {
  const PlantedTensor p = MakePlanted(24, 4, 43);
  DbtfConfig config = SmallConfig();
  auto session = Session::Create(p.tensor, config);
  ASSERT_TRUE(session.ok());

  for (const std::int64_t rank : {3, 5}) {
    config.rank = rank;
    auto from_session = (*session)->Factorize(config);
    auto from_wrapper = Dbtf::Factorize(p.tensor, config);
    ASSERT_TRUE(from_session.ok() && from_wrapper.ok());
    // Reuse is invisible to the result: factors and reported traffic are
    // identical to a from-scratch factorization.
    EXPECT_EQ(from_session->a, from_wrapper->a);
    EXPECT_EQ(from_session->b, from_wrapper->b);
    EXPECT_EQ(from_session->c, from_wrapper->c);
    ExpectSameComm(from_session->comm, from_wrapper->comm);
  }
  EXPECT_EQ((*session)->cluster().comm().Snapshot().shuffle_events, 1)
      << "the resident partitions must not be reshuffled between runs";
}

TEST(Session, OwnsAllPartitionStateInWorkers) {
  const PlantedTensor p = MakePlanted(24, 4, 44);
  const DbtfConfig config = SmallConfig();
  auto session = Session::Create(p.tensor, config);
  ASSERT_TRUE(session.ok());
  EXPECT_EQ((*session)->num_workers(), config.cluster.num_machines);
  EXPECT_EQ((*session)->cluster().num_attached_workers(),
            config.cluster.num_machines);
}

TEST(Session, RejectsMismatchedPartitioning) {
  const PlantedTensor p = MakePlanted(20, 3, 45);
  DbtfConfig config = SmallConfig(3);
  auto session = Session::Create(p.tensor, config);
  ASSERT_TRUE(session.ok());
  DbtfConfig other = config;
  other.num_partitions = 8;
  EXPECT_EQ((*session)->Factorize(other).status().code(),
            StatusCode::kInvalidArgument);
  other = config;
  other.cluster.num_machines = 3;
  EXPECT_EQ((*session)->Factorize(other).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(RunFactorUpdate, RequiresAttachedWorkers) {
  const DbtfConfig config = SmallConfig(2);
  auto cluster = Cluster::Create(config.cluster);
  ASSERT_TRUE(cluster.ok());
  BitMatrix factor(8, 2);
  BitMatrix mf(8, 2);
  BitMatrix ms(8, 2);
  const UnfoldShape shape{8, 8, 8};
  auto r = RunFactorUpdate(cluster->get(), Mode::kOne, shape, &factor, mf, ms,
                           config);
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
}

void ExpectSameFactorsAndErrors(const DbtfResult& got, const DbtfResult& want) {
  EXPECT_EQ(got.a, want.a);
  EXPECT_EQ(got.b, want.b);
  EXPECT_EQ(got.c, want.c);
  EXPECT_EQ(got.iteration_errors, want.iteration_errors);
  EXPECT_EQ(got.final_error, want.final_error);
  EXPECT_EQ(got.cells_changed, want.cells_changed);
}

/// The fault-tolerance acceptance criterion: transient faults absorbed by the
/// routing retry policy leave the result bitwise-identical to the fault-free
/// run — only the recovery ledger shows they ever happened.
TEST(SessionFaults, SeededTransientFaultsAreInvisibleInTheResult) {
  const PlantedTensor p = MakePlanted(24, 4, 47);
  const DbtfConfig config = SmallConfig();
  auto baseline = Dbtf::Factorize(p.tensor, config);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  EXPECT_EQ(baseline->recovery.failed_deliveries, 0)
      << "a fault-free run reports an all-zero recovery ledger";
  EXPECT_EQ(baseline->recovery.machines_lost, 0);

  for (const std::uint64_t seed : {11, 12, 13}) {
    DbtfConfig faulty = config;
    faulty.cluster.fault_plan = FaultPlan::Random(
        seed, config.cluster.num_machines, /*num_transient=*/5,
        /*num_crashes=*/0);
    auto r = Dbtf::Factorize(p.tensor, faulty);
    ASSERT_TRUE(r.ok()) << "seed " << seed << ": " << r.status().ToString();
    ExpectSameFactorsAndErrors(*r, *baseline);
    EXPECT_GT(r->recovery.failed_deliveries + r->recovery.recovery_seconds, 0)
        << "seed " << seed << ": the plan never fired";
    EXPECT_EQ(r->recovery.machines_lost, 0);
  }
}

/// Losing one machine permanently mid-update re-provisions its partitions
/// onto the survivor and re-runs the interrupted column — the recovered run
/// is bitwise-identical, and the reshipped bytes ride the CommStats ledger
/// as shuffles.
TEST(SessionFaults, PermanentMachineLossRecoversBitwiseIdentical) {
  const PlantedTensor p = MakePlanted(24, 4, 48);
  const DbtfConfig config = SmallConfig();
  auto baseline = Dbtf::Factorize(p.tensor, config);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  DbtfConfig faulty = config;
  auto plan = FaultPlan::Parse("1:dispatch:crash@3");
  ASSERT_TRUE(plan.ok());
  faulty.cluster.fault_plan = *plan;
  auto r = Dbtf::Factorize(p.tensor, faulty);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ExpectSameFactorsAndErrors(*r, *baseline);

  EXPECT_EQ(r->recovery.machines_lost, 1);
  EXPECT_GT(r->recovery.reprovisions, 0);
  EXPECT_GT(r->recovery.reshipped_bytes, 0);
  EXPECT_EQ(r->comm.shuffle_bytes - baseline->comm.shuffle_bytes,
            r->recovery.reshipped_bytes)
      << "reshipped partitions are priced as shuffles";
  EXPECT_EQ(r->comm.shuffle_events - baseline->comm.shuffle_events,
            r->recovery.reprovisions);
}

/// Random plans mixing transient faults with one permanent loss: the paper's
/// numbers must not depend on which machines survived the run.
TEST(SessionFaults, MixedRandomPlansStayBitwiseIdentical) {
  const PlantedTensor p = MakePlanted(24, 4, 49);
  const DbtfConfig config = SmallConfig();
  auto baseline = Dbtf::Factorize(p.tensor, config);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  for (const std::uint64_t seed : {21, 22}) {
    DbtfConfig faulty = config;
    faulty.cluster.fault_plan = FaultPlan::Random(
        seed, config.cluster.num_machines, /*num_transient=*/4,
        /*num_crashes=*/1);
    auto r = Dbtf::Factorize(p.tensor, faulty);
    ASSERT_TRUE(r.ok()) << "seed " << seed << ": " << r.status().ToString();
    ExpectSameFactorsAndErrors(*r, *baseline);
    EXPECT_EQ(r->recovery.machines_lost, 1) << "seed " << seed;
    EXPECT_GT(r->recovery.reprovisions, 0);
  }
}

/// A fault the retry budget cannot bridge surfaces as a clean kUnavailable —
/// never a hang, never a crash.
TEST(SessionFaults, ExhaustedRetryBudgetSurfacesCleanUnavailable) {
  const PlantedTensor p = MakePlanted(24, 4, 50);
  DbtfConfig faulty = SmallConfig();
  auto plan = FaultPlan::Parse("0:dispatch:transient@1x1000000");
  ASSERT_TRUE(plan.ok());
  faulty.cluster.fault_plan = *plan;
  auto r = Dbtf::Factorize(p.tensor, faulty);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(r.status().message().find("retry budget exhausted"),
            std::string::npos)
      << r.status().ToString();
}

/// The delta-broadcast acceptance criterion: shipping only changed operand
/// columns is invisible in the results — factors, error trajectory, collect
/// and shuffle traffic all match the full-broadcast ablation bitwise — while
/// the broadcast bytes strictly shrink (same number of broadcast *events*).
TEST(DeltaBroadcast, BitwiseIdenticalWithStrictlyFewerBroadcastBytes) {
  const PlantedTensor p = MakePlanted(24, 4, 51);
  DbtfConfig with_delta = SmallConfig();
  ASSERT_TRUE(with_delta.enable_delta_broadcast) << "delta is the default";
  DbtfConfig full = with_delta;
  full.enable_delta_broadcast = false;

  auto delta_run = Dbtf::Factorize(p.tensor, with_delta);
  auto full_run = Dbtf::Factorize(p.tensor, full);
  ASSERT_TRUE(delta_run.ok()) << delta_run.status().ToString();
  ASSERT_TRUE(full_run.ok()) << full_run.status().ToString();

  ExpectSameFactorsAndErrors(*delta_run, *full_run);
  EXPECT_EQ(delta_run->comm.broadcast_events, full_run->comm.broadcast_events);
  EXPECT_EQ(delta_run->comm.collect_bytes, full_run->comm.collect_bytes);
  EXPECT_EQ(delta_run->comm.collect_events, full_run->comm.collect_events);
  EXPECT_EQ(delta_run->comm.shuffle_bytes, full_run->comm.shuffle_bytes);
  EXPECT_LT(delta_run->comm.broadcast_bytes, full_run->comm.broadcast_bytes)
      << "delta broadcasts must strictly reduce the broadcast volume";
}

/// Deltas and recovery compose: under a fault plan with transient faults and
/// one permanent machine loss, the delta run still matches the full-broadcast
/// run (and hence the fault-free baseline) bitwise. The recovery rebroadcast
/// re-sends an already-applied delta, which workers skip by generation.
TEST(DeltaBroadcast, BitwiseIdenticalUnderFaultPlan) {
  const PlantedTensor p = MakePlanted(24, 4, 52);
  DbtfConfig with_delta = SmallConfig();
  auto plan =
      FaultPlan::Parse("0:broadcast:transient@2,1:dispatch:crash@4");
  ASSERT_TRUE(plan.ok());
  with_delta.cluster.fault_plan = *plan;
  DbtfConfig full = with_delta;
  full.enable_delta_broadcast = false;

  auto baseline = Dbtf::Factorize(p.tensor, SmallConfig());
  auto delta_run = Dbtf::Factorize(p.tensor, with_delta);
  auto full_run = Dbtf::Factorize(p.tensor, full);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  ASSERT_TRUE(delta_run.ok()) << delta_run.status().ToString();
  ASSERT_TRUE(full_run.ok()) << full_run.status().ToString();

  ExpectSameFactorsAndErrors(*delta_run, *baseline);
  ExpectSameFactorsAndErrors(*delta_run, *full_run);
  EXPECT_EQ(delta_run->recovery.machines_lost, 1);
  EXPECT_LT(delta_run->comm.broadcast_bytes, full_run->comm.broadcast_bytes);
}

/// On a bandwidth-starved cluster the broadcast bytes dominate the virtual
/// makespan, so shipping deltas must shrink it. driver_seconds (the network
/// share) is fully deterministic; the compute share rides along.
TEST(DeltaBroadcast, ImprovesVirtualMakespanWhenBandwidthBound) {
  const PlantedTensor p = MakePlanted(24, 4, 53);
  DbtfConfig with_delta = SmallConfig();
  with_delta.cluster.network_bandwidth_bytes_per_second = 1e4;
  DbtfConfig full = with_delta;
  full.enable_delta_broadcast = false;

  auto delta_run = Dbtf::Factorize(p.tensor, with_delta);
  auto full_run = Dbtf::Factorize(p.tensor, full);
  ASSERT_TRUE(delta_run.ok()) << delta_run.status().ToString();
  ASSERT_TRUE(full_run.ok()) << full_run.status().ToString();

  EXPECT_NEAR(delta_run->driver_seconds + delta_run->machine_seconds,
              delta_run->virtual_seconds, 1e-9);
  EXPECT_LT(delta_run->driver_seconds, full_run->driver_seconds)
      << "fewer broadcast bytes must mean less simulated network time";
  EXPECT_LT(delta_run->virtual_seconds, full_run->virtual_seconds);
}

// --- Checkpoint/resume ------------------------------------------------------

std::string CkptDir(const std::string& name) {
  static int counter = 0;
  const std::string dir = ::testing::TempDir() + "/engine_ckpt_" + name + "_" +
                          std::to_string(counter++);
  // The names repeat across test-binary runs; leftovers from a previous run
  // would be loaded as resumable snapshots, so start from a clean slate.
  std::filesystem::remove_all(dir);
  return dir;
}

DbtfConfig CheckpointedConfig(const std::string& dir) {
  DbtfConfig config = SmallConfig();
  config.checkpoint_dir = dir;
  config.checkpoint_every_columns = 1;
  return config;
}

/// Checkpointing must be invisible in the result: same factors, errors,
/// cache stats, and ledger as a run without it — only snapshots appear on
/// disk.
TEST(Resume, CheckpointingIsInvisibleInTheResult) {
  const PlantedTensor p = MakePlanted(24, 4, 54);
  auto baseline = Dbtf::Factorize(p.tensor, SmallConfig());
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  const std::string dir = CkptDir("invisible");
  auto checkpointed = Dbtf::Factorize(p.tensor, CheckpointedConfig(dir));
  ASSERT_TRUE(checkpointed.ok()) << checkpointed.status().ToString();

  ExpectSameFactorsAndErrors(*checkpointed, *baseline);
  ExpectSameComm(checkpointed->comm, baseline->comm);
  EXPECT_EQ(checkpointed->cache_entries, baseline->cache_entries);
  EXPECT_EQ(checkpointed->cache_bytes, baseline->cache_bytes);
  EXPECT_EQ(checkpointed->resumed_from_iteration, 0);
  // Cadence 1 writes one snapshot per completed column: L sets x 3 modes x R
  // columns in iteration 1, then 3 x R per later iteration.
  const DbtfConfig config = SmallConfig();
  const std::int64_t columns =
      config.rank * 3 *
      (config.num_initial_sets + (checkpointed->iterations_run - 1));
  EXPECT_EQ(checkpointed->checkpoints_written, columns);

  auto store = CheckpointStore::Open(dir, config.checkpoint_retention);
  ASSERT_TRUE(store.ok());
  const std::vector<std::int64_t> sequences = store->ListSequences();
  EXPECT_EQ(sequences.size(),
            static_cast<std::size_t>(config.checkpoint_retention));
  EXPECT_EQ(sequences.back(), columns);
}

/// The tentpole acceptance criterion: kill the run at assorted column
/// boundaries (mid-mode, mode boundary, set boundary, a later iteration),
/// resume in a fresh session, and get a bitwise-identical result — factors,
/// error trajectory, cache stats, and the full communication ledger.
TEST(Resume, HaltAndResumeMatchesUninterruptedBitwise) {
  const PlantedTensor p = MakePlanted(24, 4, 55);
  auto baseline = Dbtf::Factorize(p.tensor, SmallConfig());
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  for (const std::int64_t halt_at : {1, 4, 7, 12, 24, 30}) {
    const std::string dir = CkptDir("halt");
    DbtfConfig interrupted = CheckpointedConfig(dir);
    interrupted.halt_after_columns = halt_at;
    auto killed = Dbtf::Factorize(p.tensor, interrupted);
    ASSERT_FALSE(killed.ok()) << "halt at " << halt_at << " never fired";
    EXPECT_EQ(killed.status().code(), StatusCode::kResourceExhausted);

    DbtfConfig resume = CheckpointedConfig(dir);
    resume.resume = true;
    auto resumed = Dbtf::Factorize(p.tensor, resume);
    ASSERT_TRUE(resumed.ok())
        << "halt at " << halt_at << ": " << resumed.status().ToString();
    ExpectSameFactorsAndErrors(*resumed, *baseline);
    ExpectSameComm(resumed->comm, baseline->comm);
    EXPECT_EQ(resumed->cache_entries, baseline->cache_entries);
    EXPECT_EQ(resumed->cache_bytes, baseline->cache_bytes);
    EXPECT_EQ(resumed->iterations_run, baseline->iterations_run);
    EXPECT_EQ(resumed->converged, baseline->converged);
    EXPECT_GE(resumed->resumed_from_iteration, 1) << "halt at " << halt_at;
    // The count is cumulative across the lineage: the interrupted run wrote
    // one snapshot per column up to the halt, and the resumed run continues.
    EXPECT_GT(resumed->checkpoints_written, halt_at) << "halt at " << halt_at;
  }
}

/// With the default cadence (one snapshot per completed mode update), a halt
/// between snapshots resumes from an earlier column and replays the gap —
/// exercising the finalize-a-completed-mode restore path (next_column ==
/// rank) — still bitwise-identical.
TEST(Resume, DefaultCadenceReplaysTheGapAfterTheNewestSnapshot) {
  const PlantedTensor p = MakePlanted(24, 4, 56);
  auto baseline = Dbtf::Factorize(p.tensor, SmallConfig());
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  const std::string dir = CkptDir("cadence");
  DbtfConfig interrupted = SmallConfig();
  interrupted.checkpoint_dir = dir;  // checkpoint_every_columns stays 0
  interrupted.halt_after_columns = 6;  // newest snapshot is at column 4
  auto killed = Dbtf::Factorize(p.tensor, interrupted);
  ASSERT_FALSE(killed.ok());
  EXPECT_EQ(killed.status().code(), StatusCode::kResourceExhausted);

  DbtfConfig resume = SmallConfig();
  resume.checkpoint_dir = dir;
  resume.resume = true;
  auto resumed = Dbtf::Factorize(p.tensor, resume);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  ExpectSameFactorsAndErrors(*resumed, *baseline);
  ExpectSameComm(resumed->comm, baseline->comm);
  EXPECT_GE(resumed->resumed_from_iteration, 1);
}

/// Resume composes with fault injection: the restored delivery counters and
/// dead set let the resumed run replay the plan's schedule exactly, whether
/// the crash fires before the halt (restore a dead machine) or after the
/// resume (replay the pending fault). Factors, errors, and the recovery
/// ledger match the uninterrupted faulty run.
TEST(Resume, ReplaysTheFaultScheduleAcrossTheCut) {
  const PlantedTensor p = MakePlanted(24, 4, 57);
  DbtfConfig faulty = SmallConfig();
  auto plan = FaultPlan::Parse("1:dispatch:crash@4,0:dispatch:transient@3x2");
  ASSERT_TRUE(plan.ok());
  faulty.cluster.fault_plan = *plan;
  auto baseline = Dbtf::Factorize(p.tensor, faulty);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  ASSERT_EQ(baseline->recovery.machines_lost, 1);

  // halt 2: both faults still pending at the cut; halt 13: machine 1 is
  // already dead and its partitions live on the survivor.
  for (const std::int64_t halt_at : {2, 13}) {
    const std::string dir = CkptDir("faulty");
    DbtfConfig interrupted = faulty;
    interrupted.checkpoint_dir = dir;
    interrupted.checkpoint_every_columns = 1;
    interrupted.halt_after_columns = halt_at;
    auto killed = Dbtf::Factorize(p.tensor, interrupted);
    ASSERT_FALSE(killed.ok()) << "halt at " << halt_at << " never fired";
    EXPECT_EQ(killed.status().code(), StatusCode::kResourceExhausted);

    DbtfConfig resume = faulty;
    resume.checkpoint_dir = dir;
    resume.checkpoint_every_columns = 1;
    resume.resume = true;
    auto resumed = Dbtf::Factorize(p.tensor, resume);
    ASSERT_TRUE(resumed.ok())
        << "halt at " << halt_at << ": " << resumed.status().ToString();
    ExpectSameFactorsAndErrors(*resumed, *baseline);
    EXPECT_EQ(resumed->recovery.failed_deliveries,
              baseline->recovery.failed_deliveries)
        << "halt at " << halt_at;
    EXPECT_EQ(resumed->recovery.retries, baseline->recovery.retries);
    EXPECT_EQ(resumed->recovery.machines_lost,
              baseline->recovery.machines_lost);
    EXPECT_EQ(resumed->recovery.reprovisions, baseline->recovery.reprovisions);
    EXPECT_EQ(resumed->recovery.reshipped_bytes,
              baseline->recovery.reshipped_bytes);
  }
}

/// Resume with the full-broadcast ablation: the shadows still checkpoint and
/// restore (they track factor content either way), and the resumed run
/// matches bitwise including the ledger.
TEST(Resume, WorksWithDeltaBroadcastDisabled) {
  const PlantedTensor p = MakePlanted(24, 4, 58);
  DbtfConfig full = SmallConfig();
  full.enable_delta_broadcast = false;
  auto baseline = Dbtf::Factorize(p.tensor, full);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  const std::string dir = CkptDir("fullbcast");
  DbtfConfig interrupted = full;
  interrupted.checkpoint_dir = dir;
  interrupted.checkpoint_every_columns = 1;
  interrupted.halt_after_columns = 5;
  auto killed = Dbtf::Factorize(p.tensor, interrupted);
  ASSERT_FALSE(killed.ok());

  DbtfConfig resume = full;
  resume.checkpoint_dir = dir;
  resume.resume = true;
  auto resumed = Dbtf::Factorize(p.tensor, resume);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  ExpectSameFactorsAndErrors(*resumed, *baseline);
  ExpectSameComm(resumed->comm, baseline->comm);
}

/// Resuming on the same session object (workers still hold the factor
/// content at matching generations) takes the generation-skip path of worker
/// rehydration and must land on the same result as a fresh-process resume.
TEST(Resume, SameSessionResumeMatchesFreshSessionResume) {
  const PlantedTensor p = MakePlanted(24, 4, 59);
  auto baseline = Dbtf::Factorize(p.tensor, SmallConfig());
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  const std::string dir = CkptDir("samesession");
  DbtfConfig interrupted = CheckpointedConfig(dir);
  interrupted.halt_after_columns = 9;

  auto session = Session::Create(p.tensor, interrupted);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  auto killed = (*session)->Factorize(interrupted);
  ASSERT_FALSE(killed.ok());
  EXPECT_EQ(killed.status().code(), StatusCode::kResourceExhausted);

  DbtfConfig resume = CheckpointedConfig(dir);
  resume.resume = true;
  auto resumed = (*session)->Factorize(resume);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  ExpectSameFactorsAndErrors(*resumed, *baseline);
  ExpectSameComm(resumed->comm, baseline->comm);
  EXPECT_GE(resumed->resumed_from_iteration, 1);
}

/// Corrupting the newest snapshot must not sink the resume: the store falls
/// back to the next-newest valid one, the run replays the extra columns, and
/// the result is still bitwise-identical.
TEST(Resume, CorruptNewestSnapshotFallsBackEndToEnd) {
  const PlantedTensor p = MakePlanted(24, 4, 60);
  auto baseline = Dbtf::Factorize(p.tensor, SmallConfig());
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  const std::string dir = CkptDir("corrupt");
  DbtfConfig interrupted = CheckpointedConfig(dir);
  interrupted.halt_after_columns = 7;
  auto killed = Dbtf::Factorize(p.tensor, interrupted);
  ASSERT_FALSE(killed.ok());

  auto store = CheckpointStore::Open(dir, interrupted.checkpoint_retention);
  ASSERT_TRUE(store.ok());
  const std::vector<std::int64_t> sequences = store->ListSequences();
  ASSERT_GE(sequences.size(), 2u);
  const std::string manifest =
      dir + "/ckpt-" + std::to_string(sequences.back()) + "/MANIFEST";
  std::string bytes;
  {
    std::ifstream in(manifest, std::ios::binary);
    ASSERT_TRUE(in.is_open()) << manifest;
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_FALSE(bytes.empty());
  bytes[bytes.size() / 2] ^= 0x01;
  {
    std::ofstream out(manifest, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  DbtfConfig resume = CheckpointedConfig(dir);
  resume.resume = true;
  auto resumed = Dbtf::Factorize(p.tensor, resume);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  ExpectSameFactorsAndErrors(*resumed, *baseline);
  ExpectSameComm(resumed->comm, baseline->comm);
}

/// A snapshot binds to its run: resuming with a different semantic
/// configuration or a different tensor is refused up front.
TEST(Resume, RejectsMismatchedConfigOrTensor) {
  const PlantedTensor p = MakePlanted(24, 4, 61);
  const std::string dir = CkptDir("mismatch");
  DbtfConfig interrupted = CheckpointedConfig(dir);
  interrupted.halt_after_columns = 3;
  ASSERT_FALSE(Dbtf::Factorize(p.tensor, interrupted).ok());

  DbtfConfig resume = CheckpointedConfig(dir);
  resume.resume = true;
  resume.seed = 99;  // a different trajectory entirely
  EXPECT_EQ(Dbtf::Factorize(p.tensor, resume).status().code(),
            StatusCode::kFailedPrecondition);

  resume.seed = interrupted.seed;
  const PlantedTensor other = MakePlanted(24, 4, 62);
  EXPECT_EQ(Dbtf::Factorize(other.tensor, resume).status().code(),
            StatusCode::kFailedPrecondition);

  // Operational knobs (cadence, halts) are not part of the identity.
  resume.checkpoint_every_columns = 2;
  auto ok = Dbtf::Factorize(p.tensor, resume);
  EXPECT_TRUE(ok.ok()) << ok.status().ToString();
}

/// Resume against an empty checkpoint directory is a clean kNotFound, not a
/// silent fresh start.
TEST(Resume, WithoutSnapshotsIsNotFound) {
  const PlantedTensor p = MakePlanted(24, 4, 63);
  DbtfConfig resume = CheckpointedConfig(CkptDir("empty"));
  resume.resume = true;
  EXPECT_EQ(Dbtf::Factorize(p.tensor, resume).status().code(),
            StatusCode::kNotFound);
}

// --- Transport equivalence --------------------------------------------------
//
// The transport-seam acceptance criterion: the socket transport (one
// dbtf-worker OS process per machine, wire-serialized messages) and the
// in-process transport produce bitwise-identical factors, error
// trajectories, and comm + recovery ledgers. The ledgers match by
// construction — both transports charge the same WireBytes() of the same
// messages at the same routing layer — and these tests pin that construction
// down end to end.

void ExpectSameRecovery(const RecoveryStats& got, const RecoveryStats& want) {
  EXPECT_EQ(got.failed_deliveries, want.failed_deliveries);
  EXPECT_EQ(got.retries, want.retries);
  EXPECT_EQ(got.machines_lost, want.machines_lost);
  EXPECT_EQ(got.reprovisions, want.reprovisions);
  EXPECT_EQ(got.reshipped_bytes, want.reshipped_bytes);
  EXPECT_EQ(got.recovery_seconds, want.recovery_seconds);
}

/// Runs `base` on both transports and expects them equivalent; the oracle's
/// recovery ledger goes to `*recovery` when non-null.
void ExpectTransportEquivalent(const DbtfConfig& base,
                               RecoveryStats* recovery = nullptr) {
  DbtfConfig inproc = base;
  inproc.cluster.transport.kind = TransportKind::kInProcess;
  DbtfConfig socket = base;
  socket.cluster.transport.kind = TransportKind::kSocket;

  const PlantedTensor p = MakePlanted(24, 4, 71);
  auto oracle = Dbtf::Factorize(p.tensor, inproc);
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  auto remote = Dbtf::Factorize(p.tensor, socket);
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();

  ExpectSameFactorsAndErrors(*remote, *oracle);
  ExpectSameComm(remote->comm, oracle->comm);
  ExpectSameRecovery(remote->recovery, oracle->recovery);
  EXPECT_EQ(remote->iterations_run, oracle->iterations_run);
  EXPECT_EQ(remote->converged, oracle->converged);
  EXPECT_EQ(remote->cache_entries, oracle->cache_entries);
  EXPECT_EQ(remote->cache_bytes, oracle->cache_bytes);
  if (recovery != nullptr) *recovery = oracle->recovery;
}

TEST(TransportEquivalence, SocketMatchesInprocWithDeltaBroadcasts) {
  DbtfConfig config = SmallConfig();
  config.enable_delta_broadcast = true;
  ExpectTransportEquivalent(config);
}

TEST(TransportEquivalence, SocketMatchesInprocWithFullBroadcasts) {
  DbtfConfig config = SmallConfig();
  config.enable_delta_broadcast = false;
  ExpectTransportEquivalent(config);
}

/// Under a deterministic fault plan (transient faults plus a permanent
/// crash) both transports take the identical retry/recovery path: the
/// injector runs driver-side before the endpoint is touched, so the same
/// deliveries fail on the same attempt no matter which transport would have
/// carried them.
TEST(TransportEquivalence, SocketMatchesInprocUnderAFaultPlan) {
  DbtfConfig config = SmallConfig();
  auto plan = FaultPlan::Parse("0:broadcast:transient@2,1:dispatch:crash@4");
  ASSERT_TRUE(plan.ok());
  config.cluster.fault_plan = *plan;
  ExpectTransportEquivalent(config);
}

/// Socket x faults on four machines: a transient broadcast fault, a column
/// fault that fails two attempts in a row, a crash, and a stall past the
/// message deadline. The socket fan-out posts every machine's frame before
/// reading a reply and retries a failed machine alone; the in-process one
/// runs each machine on the pool. Both must take the same retry and loss
/// path, so factors, errors and both ledgers match.
TEST(TransportEquivalence, SocketMatchesInprocUnderRetriesStallAndCrash) {
  DbtfConfig config = SmallConfig();
  config.cluster.num_machines = 4;
  auto plan = FaultPlan::Parse(
      "0:broadcast:transient@2,1:dispatch:transient@3x2,"
      "2:dispatch:crash@5,3:dispatch:stall@7~0.5");
  ASSERT_TRUE(plan.ok());
  config.cluster.fault_plan = *plan;
  RecoveryStats recovery;
  ExpectTransportEquivalent(config, &recovery);
  // The plan fired: three failed attempts retried, one past-deadline stall
  // retried, one machine lost.
  EXPECT_EQ(recovery.machines_lost, 1);
  EXPECT_EQ(recovery.retries, 4);
  EXPECT_GT(recovery.reprovisions, 0);
}

/// The transport is excluded from the checkpoint's config fingerprint on
/// purpose: a snapshot written under one transport resumes under the other,
/// bitwise.
TEST(TransportEquivalence, CheckpointsResumeAcrossTransports) {
  const PlantedTensor p = MakePlanted(24, 4, 72);
  auto baseline = Dbtf::Factorize(p.tensor, SmallConfig());
  ASSERT_TRUE(baseline.ok());

  const std::string dir = CkptDir("cross_transport");
  DbtfConfig interrupted = CheckpointedConfig(dir);
  interrupted.cluster.transport.kind = TransportKind::kInProcess;
  interrupted.halt_after_columns = 7;
  ASSERT_EQ(Dbtf::Factorize(p.tensor, interrupted).status().code(),
            StatusCode::kResourceExhausted);

  DbtfConfig resume = CheckpointedConfig(dir);
  resume.cluster.transport.kind = TransportKind::kSocket;
  resume.resume = true;
  auto resumed = Dbtf::Factorize(p.tensor, resume);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  ExpectSameFactorsAndErrors(*resumed, *baseline);
  ExpectSameComm(resumed->comm, baseline->comm);
  EXPECT_GE(resumed->resumed_from_iteration, 1);
}

// --- Kernel backend ablation ------------------------------------------------

/// The kernel-layer acceptance criterion: the SIMD dispatch is a pure
/// throughput knob. A run forced onto the portable scalar oracle and a run
/// on the auto-dispatched backend produce bitwise-identical factors, error
/// trajectories, and comm/recovery ledgers. (On a machine without SIMD
/// support auto resolves to portable and the comparison is trivially true —
/// the CI kernels matrix covers both shapes.)
TEST(KernelAblation, PortableAndAutoAreBitwiseIdentical) {
  const PlantedTensor p = MakePlanted(24, 4, 81);
  DbtfConfig portable = SmallConfig();
  portable.kernel_backend = KernelBackend::kPortable;
  DbtfConfig autod = SmallConfig();
  autod.kernel_backend = KernelBackend::kAuto;

  auto portable_run = Dbtf::Factorize(p.tensor, portable);
  auto auto_run = Dbtf::Factorize(p.tensor, autod);
  ASSERT_TRUE(portable_run.ok()) << portable_run.status().ToString();
  ASSERT_TRUE(auto_run.ok()) << auto_run.status().ToString();

  EXPECT_EQ(portable_run->kernel_backend, "portable");
  EXPECT_NE(auto_run->kernel_backend, "auto") << "auto must resolve";
  ExpectSameFactorsAndErrors(*auto_run, *portable_run);
  ExpectSameComm(auto_run->comm, portable_run->comm);
  ExpectSameRecovery(auto_run->recovery, portable_run->recovery);
  EXPECT_EQ(auto_run->iterations_run, portable_run->iterations_run);
  EXPECT_EQ(auto_run->converged, portable_run->converged);
  EXPECT_EQ(auto_run->cache_entries, portable_run->cache_entries);
  EXPECT_EQ(auto_run->cache_bytes, portable_run->cache_bytes);
  EXPECT_EQ(auto_run->cells_changed, portable_run->cells_changed);
}

/// Every individually supported backend (not just auto's pick) matches the
/// portable run, including under a fault plan so the retry/recovery paths
/// execute on SIMD kernels too.
TEST(KernelAblation, EveryCompiledBackendMatchesPortableUnderFaults) {
  const PlantedTensor p = MakePlanted(24, 4, 82);
  DbtfConfig base = SmallConfig();
  auto plan = FaultPlan::Parse("0:broadcast:transient@2,1:dispatch:crash@4");
  ASSERT_TRUE(plan.ok());
  base.cluster.fault_plan = *plan;

  DbtfConfig portable = base;
  portable.kernel_backend = KernelBackend::kPortable;
  auto baseline = Dbtf::Factorize(p.tensor, portable);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  for (const KernelBackend backend : SupportedKernelBackends()) {
    DbtfConfig config = base;
    config.kernel_backend = backend;
    auto run = Dbtf::Factorize(p.tensor, config);
    ASSERT_TRUE(run.ok()) << KernelBackendName(backend) << ": "
                          << run.status().ToString();
    EXPECT_EQ(run->kernel_backend, KernelBackendName(backend));
    ExpectSameFactorsAndErrors(*run, *baseline);
    ExpectSameComm(run->comm, baseline->comm);
    ExpectSameRecovery(run->recovery, baseline->recovery);
  }
}

/// The kernel backend is excluded from the checkpoint's config fingerprint
/// on purpose (like the transport): a snapshot written under the portable
/// backend resumes under the auto-dispatched one, bitwise.
TEST(KernelAblation, CheckpointsResumeAcrossBackends) {
  const PlantedTensor p = MakePlanted(24, 4, 83);
  DbtfConfig baseline_config = SmallConfig();
  baseline_config.kernel_backend = KernelBackend::kPortable;
  auto baseline = Dbtf::Factorize(p.tensor, baseline_config);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  const std::string dir = CkptDir("cross_kernel");
  DbtfConfig interrupted = CheckpointedConfig(dir);
  interrupted.kernel_backend = KernelBackend::kPortable;
  interrupted.halt_after_columns = 7;
  ASSERT_EQ(Dbtf::Factorize(p.tensor, interrupted).status().code(),
            StatusCode::kResourceExhausted);

  DbtfConfig resume = CheckpointedConfig(dir);
  resume.kernel_backend = KernelBackend::kAuto;
  resume.resume = true;
  auto resumed = Dbtf::Factorize(p.tensor, resume);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  ExpectSameFactorsAndErrors(*resumed, *baseline);
  ExpectSameComm(resumed->comm, baseline->comm);
  EXPECT_GE(resumed->resumed_from_iteration, 1);
}

/// The rank scan runs every candidate on one resident session.
TEST(RankSelection, SharesOnePartitionedSession) {
  const PlantedTensor p = MakePlanted(24, 3, 46);
  auto selection = EstimateBooleanRank(p.tensor, 6, SmallConfig(1));
  ASSERT_TRUE(selection.ok()) << selection.status().ToString();
  EXPECT_GE(selection->best_rank, 1);
  EXPECT_GE(selection->ranks.size(), 2u);
}

}  // namespace
}  // namespace dbtf
