// The acceptance soak (minutes-long; ctest label "soak"): three UDS device
// processes driven for >= 2 minutes of paced churn under loss, duplication,
// reordering, a gray-failing rank and a mid-run rank kill — required to
// converge byte-identically to the fault-free oracle with SLOs asserted
// from a live metrics scrape — plus a 50-schedule seeded fuzz sweep.
//
// Gated on TULKUN_SOAK=1 so the default suite stays fast:
//   TULKUN_SOAK=1 ctest -L soak --output-on-failure
#include "scenario/soak.hpp"

#include <gtest/gtest.h>

#include <cstdlib>

namespace tulkun::scenario {
namespace {

bool soak_enabled() {
  const char* v = std::getenv("TULKUN_SOAK");
  return v != nullptr && *v != '\0' && *v != '0';
}

TEST(SoakAcceptance, MultiProcessChurnChaosKillSurvives) {
  if (!soak_enabled()) GTEST_SKIP() << "set TULKUN_SOAK=1 to run";
  SoakOptions so;
  so.spec = eval::dataset("INet2");
  so.harness.seed = 42;
  so.harness.max_destinations = 4;
  so.kind = net::TransportKind::Unix;
  so.device_procs = 3;
  // ~2.1 minutes of paced arrivals at 2 Hz.
  so.scenario.churn.seed = 42;
  so.scenario.churn.events = 250;
  so.scenario.churn.rate_hz = 2.0;
  so.pace = true;
  so.scenario.chaos.seed = 43;
  so.scenario.chaos.loss = 0.05;
  so.scenario.chaos.dup = 0.05;
  so.scenario.chaos.reorder = 0.1;
  so.scenario.chaos.gray_rank = 2;
  so.scenario.chaos.gray_delay_s = 0.05;
  so.scenario.kills.push_back(KillSpec{1, 3});
  so.metrics_listen = "127.0.0.1:0";
  so.slo.p99_phase_s = 30.0;
  so.slo.max_recovery_s = 120.0;
  // Memory-growth oath: the coordinator's resident set and the process's
  // live BDD nodes may grow by run state, not without bound. The bounds
  // are generous (the oracle replay allocates a full second world) —
  // they exist to catch monotone leaks, not to squeeze the footprint.
  so.slo.max_rss_growth_bytes = 1.5e9;
  so.slo.max_bdd_live_growth = 5e7;

  const auto rep = run_soak(so);
  for (const auto& f : rep.failures) ADD_FAILURE() << f;
  EXPECT_TRUE(rep.converged);
  EXPECT_TRUE(rep.slo_ok);
  EXPECT_GE(rep.resets, 1u) << "the kill never exercised epoch recovery";
  EXPECT_GE(rep.wall_s, 120.0);
  ASSERT_FALSE(rep.scraped.empty());
  EXPECT_EQ(rep.scraped.count("soak_phase_p99_s"), 1u);
  EXPECT_EQ(rep.scraped.count("soak_recovery_s_max"), 1u);
  EXPECT_EQ(rep.scraped.count("proc_rss_bytes"), 1u);
  EXPECT_EQ(rep.scraped.count("bdd_live_nodes"), 1u);
  EXPECT_GE(rep.scraped.at("dist_epoch_resets"), 1.0);
}

TEST(SoakAcceptance, TreeFabricAggregatorKillSurvives) {
  if (!soak_enabled()) GTEST_SKIP() << "set TULKUN_SOAK=1 to run";
  SoakOptions so;
  so.spec = eval::dataset("INet2");
  so.harness.seed = 42;
  so.harness.max_destinations = 4;
  so.kind = net::TransportKind::Unix;
  // Three-level coordinator tree (root; aggregators 1,2; leaves 3..6) —
  // the fabric the flat soak above never exercises.
  so.device_procs = 6;
  so.tree_fanout = 2;
  // ~1 minute of paced arrivals at 2 Hz.
  so.scenario.churn.seed = 44;
  so.scenario.churn.events = 120;
  so.scenario.churn.rate_hz = 2.0;
  so.pace = true;
  so.scenario.chaos.seed = 45;
  so.scenario.chaos.loss = 0.05;
  so.scenario.chaos.dup = 0.05;
  so.scenario.chaos.reorder = 0.1;
  // Flap a leaf<->aggregator link mid-run on top of the kill.
  so.scenario.chaos.linkdowns.push_back(LinkWindow{2, 5, 10.0, 12.0});
  // Kill aggregator rank 1: its leaves 3 and 4 lose their relay and the
  // reborn rank must catch up from the root's snapshot, within the same
  // SLO the flat star is held to.
  so.scenario.kills.push_back(KillSpec{1, 3});
  so.metrics_listen = "127.0.0.1:0";
  so.slo.p99_phase_s = 30.0;
  so.slo.max_recovery_s = 120.0;

  const auto rep = run_soak(so);
  for (const auto& f : rep.failures) ADD_FAILURE() << f;
  EXPECT_TRUE(rep.converged);
  EXPECT_TRUE(rep.slo_ok);
  EXPECT_GE(rep.resets, 1u) << "the kill never exercised epoch recovery";
}

TEST(SoakAcceptance, FiftySeededSchedulesConverge) {
  if (!soak_enabled()) GTEST_SKIP() << "set TULKUN_SOAK=1 to run";
  FuzzOptions fz;
  fz.spec = eval::dataset("INet2");
  fz.harness.seed = 42;
  fz.harness.max_destinations = 4;
  fz.base.churn.events = 10;
  fz.base.chaos.loss = 0.1;
  fz.base.chaos.dup = 0.1;
  fz.base.chaos.reorder = 0.2;
  fz.base.chaos.rto_initial_s = 0.02;
  fz.base.chaos.rto_max_s = 0.1;
  fz.base_seed = 1;
  fz.schedules = 50;
  const auto rep = fuzz_schedules(fz);
  for (const auto& f : rep.failures) ADD_FAILURE() << f;
  EXPECT_EQ(rep.ran, 50u);
  EXPECT_EQ(rep.divergent, 0u);
}

}  // namespace
}  // namespace tulkun::scenario

int main(int argc, char** argv) {
  // Fork/exec re-entry for device-process ranks (uds soaks).
  if (tulkun::eval::maybe_run_device_role(argc, argv)) return 0;
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
