// Coordination-fabric differential tests (inproc): the aggregator tree
// must be invisible in the answers. A 3-level tree run (P=6, fanout=2 —
// root, two aggregators, four leaves), a flat star run, and an in-process
// ShardedRuntime replay must all produce byte-identical digest rows and
// verdict counts; delta rollups collected after every phase must agree
// with the replay too; and a scheduled link flap must not change any of
// it.
#include <gtest/gtest.h>

#include "net/dist_testutil.hpp"
#include "obs/registry.hpp"

namespace tulkun::eval {
namespace {

HarnessOptions small_opts() {
  HarnessOptions opts;
  opts.max_destinations = 2;
  return opts;
}

DistOptions inproc_tree(std::size_t updates) {
  DistOptions dist;
  dist.kind = net::TransportKind::Inproc;
  dist.device_procs = 6;
  dist.n_updates = updates;
  dist.fanout = 2;
  return dist;
}

TEST(FabricDifferentialTest, ThreeLevelTreeMatchesStarAndShardedRuntime) {
  const auto& spec = dataset("INet2");
  const auto opts = small_opts();
  constexpr std::size_t kUpdates = 6;
  const auto base = testutil::sharded_baseline(spec, opts, kUpdates);

  auto star = inproc_tree(kUpdates);
  star.fanout = 0;
  const auto star_res = dist_run(spec, opts, star);

  const auto tree_res = dist_run(spec, opts, inproc_tree(kUpdates));

  EXPECT_EQ(star_res.violations, base.violations);
  EXPECT_EQ(star_res.rows, base.rows);
  EXPECT_EQ(tree_res.violations, base.violations);
  EXPECT_EQ(tree_res.rows, base.rows);
  EXPECT_EQ(tree_res.rows, star_res.rows);

  // One verdict entry per rank, rank-sorted, regardless of topology.
  ASSERT_EQ(tree_res.entries.size(), 6u);
  for (std::size_t i = 0; i < tree_res.entries.size(); ++i) {
    EXPECT_EQ(tree_res.entries[i].rank, i + 1);
  }
}

TEST(FabricDifferentialTest, EveryPhaseDeltaRollupsMatchShardedRuntime) {
  const auto& spec = dataset("INet2");
  const auto opts = small_opts();
  constexpr std::size_t kUpdates = 5;
  const auto base = testutil::sharded_baseline(spec, opts, kUpdates);

  // A collect round after every phase: each round after the first ships
  // deltas against the previous one, through the aggregators' mirrors.
  auto deltas = inproc_tree(kUpdates);
  deltas.collect_every_phase = true;
  const auto res = dist_run(spec, opts, deltas);

  EXPECT_EQ(res.rows, base.rows);
  EXPECT_EQ(res.violations, base.violations);
}

TEST(FabricDifferentialTest, TreeUnderLinkFlapChaosConverges) {
  const auto& spec = dataset("INet2");
  const auto opts = small_opts();
  constexpr std::size_t kUpdates = 5;
  const auto base = testutil::sharded_baseline(spec, opts, kUpdates);

  auto dist = inproc_tree(kUpdates);
  // Flap the leaf<->aggregator link from t=0 (the Hello exchange is
  // guaranteed to hit it) and an aggregator<->root link shortly after;
  // the chaos ARQ redelivers everything once each window closes.
  dist.chaos.linkdowns.push_back({1, 3, 0.0, 0.15});
  dist.chaos.linkdowns.push_back({0, 2, 0.05, 0.20});
  auto& dropped = obs::Registry::instance().counter("chaos_linkdown_dropped");
  const std::uint64_t dropped0 = dropped.value();
  const auto res = dist_run(spec, opts, dist);

  EXPECT_EQ(res.rows, base.rows);
  EXPECT_EQ(res.violations, base.violations);
  // The windows must have actually severed traffic, not just decorated it.
  EXPECT_GT(dropped.value(), dropped0);
}

}  // namespace
}  // namespace tulkun::eval
