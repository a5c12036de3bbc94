// Catch-up recovery differentials. Forked UDS runs kill device ranks
// mid-run, on a phase's Begin or in the middle of its cascade; the reborn
// ranks rejoin from an ancestor's digest snapshot plus the survivors' send
// logs, replayed phase by phase, while the survivors undo only the
// interrupted phase — they never rebuild their worlds — and the converged
// digest must stay byte-identical to the in-process ShardedRuntime replay
// of the same world.
//
// This binary forks/execs itself as the device processes, so it carries a
// custom main() that routes the --tulkun-device-proc re-exec before gtest.
#include <gtest/gtest.h>

#include "net/dist_testutil.hpp"

namespace tulkun::eval {
namespace {

HarnessOptions small_opts() {
  HarnessOptions opts;
  opts.max_destinations = 2;
  return opts;
}

DistOptions tree_kill_run(std::size_t procs, std::size_t fanout,
                          std::size_t updates,
                          std::vector<scenario::KillSpec> kills) {
  DistOptions dist;
  dist.kind = net::TransportKind::Unix;
  dist.device_procs = procs;
  dist.n_updates = updates;
  dist.fanout = fanout;
  dist.kills = std::move(kills);
  return dist;
}

/// Every rank kept (survivors) or built once (reborn ranks) its verifiers.
void expect_no_rebuilds(const DistRunResult& res, std::size_t procs) {
  ASSERT_EQ(res.entries.size(), procs);
  for (const auto& e : res.entries) {
    EXPECT_EQ(e.world_rebuilds, 0u) << "rank " << e.rank;
  }
}

TEST(CatchupRecoveryTest, AggregatorAndLeafKillsConvergeFromSnapshots) {
  const auto& spec = dataset("INet2");
  const auto opts = small_opts();
  constexpr std::size_t kUpdates = 5;
  const auto base = testutil::sharded_baseline(spec, opts, kUpdates);

  // A 3-level tree (P=6, fanout=2): kill an aggregator (rank 1, phase 2)
  // and a leaf (rank 5, phase 3) under light transport chaos.
  auto dist = tree_kill_run(6, 2, kUpdates, {{1, 2}, {5, 3}});
  // Collect after every phase so the aggregator mirrors and the root store
  // hold snapshot rows by the time the kills land.
  dist.collect_every_phase = true;
  dist.chaos.loss = 0.02;
  dist.chaos.dup = 0.02;
  const auto res = dist_run(spec, opts, dist);

  EXPECT_GE(res.resets, 1u);
  EXPECT_EQ(res.violations, base.violations);
  EXPECT_EQ(res.rows, base.rows);
  expect_no_rebuilds(res, 6);
  for (const auto& e : res.entries) {
    if (e.rank == 1 || e.rank == 5) {
      EXPECT_GT(e.snapshot_rows_adopted, 0u) << "rank " << e.rank;
    } else {
      EXPECT_EQ(e.snapshot_rows_adopted, 0u) << "rank " << e.rank;
    }
  }
}

/// A run whose reborn rank is sensitive to replay order: 3 UDS processes
/// on a star, 10 churn events (seed 42), rank 1 killed when phase 3's
/// Begin arrives. Replaying the reborn rank's own phases before any of the
/// survivors' frames fragments one LocCIB row of a reborn device
/// differently from the oracle's; only a phase-by-phase replay matches.
struct StarChurnKill {
  HarnessOptions opts;
  scenario::ChurnProfile churn;
  DistOptions dist;

  StarChurnKill() {
    opts.seed = 42;
    opts.max_destinations = 4;
    churn.seed = 42;
    churn.events = 10;
    dist = tree_kill_run(3, 0, churn.events, {{1, 3}});
    dist.churn = churn;
  }
};

TEST(CatchupRecoveryTest, StarChurnKillMatchesShardedRuntime) {
  const auto& spec = dataset("INet2");
  const StarChurnKill run;
  const auto base =
      testutil::sharded_baseline(spec, run.opts, run.churn.events, &run.churn);

  const auto res = dist_run(spec, run.opts, run.dist);

  EXPECT_GE(res.resets, 1u);
  EXPECT_EQ(res.violations, base.violations);
  EXPECT_EQ(res.rows, base.rows);
  expect_no_rebuilds(res, 3);
}

TEST(CatchupRecoveryTest, MidCascadeKillsMatchShardedRuntime) {
  const auto& spec = dataset("INet2");
  StarChurnKill run;
  // Both ranks die in the middle of a phase, after their emissions for the
  // frames they took reached the survivors: rank 1 after its 4th frame of
  // the burst, rank 2 after its first frame of update phase 2. The
  // survivors undo the interrupted phase and every rank re-runs it.
  run.dist.kills = {{1, 0, 4}, {2, 2, 1}};
  const auto base =
      testutil::sharded_baseline(spec, run.opts, run.churn.events, &run.churn);

  const auto res = dist_run(spec, run.opts, run.dist);

  EXPECT_GE(res.resets, 2u);
  EXPECT_EQ(res.violations, base.violations);
  EXPECT_EQ(res.rows, base.rows);
  expect_no_rebuilds(res, 3);
}

TEST(CatchupRecoveryTest, GraySurvivorDoesNotStallCatchup) {
  const auto& spec = dataset("INet2");
  StarChurnKill run;
  // Survivor rank 2 answers every probe ~100 ms late, so some drain waves
  // miss its ack; an incomplete wave must not discard the last complete
  // one, or the drain never ends.
  run.dist.chaos.seed = 43;
  run.dist.chaos.gray_rank = 2;
  run.dist.chaos.gray_delay_s = 0.05;
  const auto base =
      testutil::sharded_baseline(spec, run.opts, run.churn.events, &run.churn);

  const auto res = dist_run(spec, run.opts, run.dist);

  EXPECT_GE(res.resets, 1u);
  EXPECT_EQ(res.violations, base.violations);
  EXPECT_EQ(res.rows, base.rows);
  expect_no_rebuilds(res, 3);
}

}  // namespace
}  // namespace tulkun::eval

int main(int argc, char** argv) {
  if (tulkun::eval::maybe_run_device_role(argc, argv)) return 0;
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
