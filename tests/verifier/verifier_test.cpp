#include "verifier/verifier.hpp"

#include <gtest/gtest.h>

#include <deque>

#include "runtime/digest.hpp"
#include "spec/builtins.hpp"
#include "testutil/figure2.hpp"

namespace tulkun::verifier {
namespace {

using testutil::Figure2;

/// A whole-network fixture: one OnDeviceVerifier per device with a
/// synchronous pump (the runtime-free path used by unit tests).
class VerifierNetwork {
 public:
  VerifierNetwork(Figure2& fig, const planner::InvariantPlan& plan)
      : fig_(&fig) {
    for (DeviceId d = 0; d < fig.topo.device_count(); ++d) {
      devices_.push_back(
          std::make_unique<OnDeviceVerifier>(d, fig.topo, fig.space()));
      devices_.back()->install(plan);
    }
  }

  void initialize_all() {
    std::vector<dvm::Envelope> pending;
    for (DeviceId d = 0; d < devices_.size(); ++d) {
      auto msgs = devices_[d]->initialize(fig_->net.table(d));
      append(pending, std::move(msgs));
    }
    pump(std::move(pending));
  }

  void apply(fib::FibUpdate update) {
    pump(devices_[update.device]->apply_rule_update(update));
  }

  void link_event(LinkId link, bool up) {
    std::vector<dvm::Envelope> pending;
    append(pending, devices_[link.from]->on_local_link_event(link, up));
    append(pending, devices_[link.to]->on_local_link_event(link, up));
    pump(std::move(pending));
  }

  std::vector<dvm::Violation> violations() const {
    std::vector<dvm::Violation> out;
    for (const auto& d : devices_) {
      auto v = d->violations();
      out.insert(out.end(), v.begin(), v.end());
    }
    return out;
  }

  OnDeviceVerifier& device(DeviceId d) { return *devices_[d]; }

 private:
  static void append(std::vector<dvm::Envelope>& into,
                     std::vector<dvm::Envelope> from) {
    into.insert(into.end(), std::make_move_iterator(from.begin()),
                std::make_move_iterator(from.end()));
  }

  void pump(std::vector<dvm::Envelope> initial) {
    std::deque<dvm::Envelope> queue(
        std::make_move_iterator(initial.begin()),
        std::make_move_iterator(initial.end()));
    while (!queue.empty()) {
      const auto env = std::move(queue.front());
      queue.pop_front();
      append_deque(queue, devices_[env.dst]->on_message(env));
    }
  }

  static void append_deque(std::deque<dvm::Envelope>& into,
                           std::vector<dvm::Envelope> from) {
    for (auto& e : from) into.push_back(std::move(e));
  }

  Figure2* fig_;
  std::vector<std::unique_ptr<OnDeviceVerifier>> devices_;
};

class VerifierTest : public ::testing::Test {
 protected:
  Figure2 fig;
  spec::Builtins b{fig.topo, fig.space()};
  planner::Planner planner{fig.topo, fig.space()};
};

TEST_F(VerifierTest, WaypointViolationDetectedAndFixed) {
  const auto plan = planner.plan(b.waypoint(fig.P1(), fig.S, fig.W, fig.D));
  VerifierNetwork net(fig, plan);
  net.initialize_all();
  EXPECT_FALSE(net.violations().empty());

  net.apply(fig.b_reroute_to_w());
  EXPECT_TRUE(net.violations().empty());
}

TEST_F(VerifierTest, UndoPointRestoresStateAtTheMark) {
  const auto plan = planner.plan(b.waypoint(fig.P1(), fig.S, fig.W, fig.D));
  VerifierNetwork net(fig, plan);
  net.initialize_all();
  const DeviceId n = fig.topo.device_count();
  std::vector<std::vector<std::string>> at_mark;
  for (DeviceId d = 0; d < n; ++d) {
    at_mark.push_back(runtime::canonical_device_rows(net.device(d)));
    net.device(d).mark_undo_point();
  }

  // The update changes the FIB/LEC tables of B and the engines along the
  // cascade; restoring every device undoes all of it.
  net.apply(fig.b_reroute_to_w());
  ASSERT_TRUE(net.violations().empty());
  for (DeviceId d = 0; d < n; ++d) net.device(d).restore_undo_point();
  for (DeviceId d = 0; d < n; ++d) {
    EXPECT_EQ(runtime::canonical_device_rows(net.device(d)), at_mark[d])
        << "device " << d;
  }
  EXPECT_FALSE(net.violations().empty());

  // The restored state is live: the same update fixes the violation again.
  net.apply(fig.b_reroute_to_w());
  EXPECT_TRUE(net.violations().empty());
}

TEST_F(VerifierTest, ShadowedUpdateIsLocal) {
  const auto plan = planner.plan(b.waypoint(fig.P1(), fig.S, fig.W, fig.D));
  VerifierNetwork net(fig, plan);
  net.initialize_all();
  const auto before = net.device(fig.B).stats().lec_patches;

  fib::Rule r;
  r.priority = 1;  // shadowed by B's existing higher-priority rule
  r.dst_prefix = fig.p34;
  r.action = fib::Action::forward(fig.W);
  auto upd = fib::FibUpdate::insert(fig.B, std::move(r));
  net.apply(std::move(upd));
  // No LEC change: no patch, no messages.
  EXPECT_EQ(net.device(fig.B).stats().lec_patches, before);
}

TEST_F(VerifierTest, FaultSceneRecountWithoutPlanner) {
  auto inv = b.shortest_plus_reachability(fig.P1(), fig.S, fig.D, 1);
  inv.faults.any_k = 1;
  const auto plan = planner.plan(std::move(inv));
  VerifierNetwork net(fig, plan);
  net.initialize_all();
  EXPECT_TRUE(net.violations().empty());

  // Fail B-D: in the universe where A sends P3 toward B, B still points
  // at the dead link — the recount must flag it (without any planner
  // involvement).
  net.link_event(LinkId{fig.B, fig.D}, false);
  EXPECT_EQ(net.device(fig.S).stats().unknown_scene_reports, 0u);
  bool p3_flagged = false;
  for (const auto& v : net.violations()) {
    if (v.pred.intersects(fig.P3())) p3_flagged = true;
  }
  EXPECT_TRUE(p3_flagged);

  // The control plane reacts: B reroutes 10.0.1.0/24 to W. The invariant
  // holds again in the failed scene.
  net.apply(fig.b_reroute_to_w());
  EXPECT_TRUE(net.violations().empty());

  // Restoring the link returns to the base scene, still clean.
  net.link_event(LinkId{fig.B, fig.D}, true);
  EXPECT_TRUE(net.violations().empty());
}

TEST_F(VerifierTest, FaultSceneViolationDetected) {
  auto inv = b.shortest_plus_reachability(fig.P1(), fig.S, fig.D, 1);
  inv.faults.any_k = 1;
  const auto plan = planner.plan(std::move(inv));
  VerifierNetwork net(fig, plan);
  net.initialize_all();

  // Fail A-W: the data plane still ANYs P3 toward B or W at A... but the
  // A-W link is down, so in the W-universe the packet is lost. The
  // invariant (exist >= 1 on surviving paths) must flag P3 or P2
  // depending on residual forwarding; at minimum, W-only P4 now breaks.
  net.link_event(LinkId{fig.A, fig.W}, false);
  const auto violations = net.violations();
  ASSERT_FALSE(violations.empty());
  bool p4_flagged = false;
  for (const auto& v : violations) {
    if (v.pred.intersects(fig.P4())) p4_flagged = true;
  }
  EXPECT_TRUE(p4_flagged);
}

TEST_F(VerifierTest, UnknownSceneReported) {
  // Plan with NO fault tolerance; any failure is an unspecified scene.
  const auto plan = planner.plan(b.waypoint(fig.P1(), fig.S, fig.W, fig.D));
  VerifierNetwork net(fig, plan);
  net.initialize_all();
  net.link_event(LinkId{fig.B, fig.D}, false);
  std::uint64_t reports = 0;
  for (DeviceId d = 0; d < fig.topo.device_count(); ++d) {
    reports += net.device(d).stats().unknown_scene_reports;
  }
  EXPECT_GT(reports, 0u);
}

TEST_F(VerifierTest, MultipleInvariantsCoexist) {
  const auto plan1 = planner.plan(b.waypoint(fig.P1(), fig.S, fig.W, fig.D));
  const auto plan2 = planner.plan(b.reachability(fig.P1(), fig.S, fig.D));
  Figure2& f = fig;
  std::vector<std::unique_ptr<OnDeviceVerifier>> devices;
  std::vector<dvm::Envelope> pending;
  for (DeviceId d = 0; d < f.topo.device_count(); ++d) {
    auto dev = std::make_unique<OnDeviceVerifier>(d, f.topo, f.space());
    dev->install(plan1);
    dev->install(plan2);
    devices.push_back(std::move(dev));
  }
  for (DeviceId d = 0; d < f.topo.device_count(); ++d) {
    auto msgs = devices[d]->initialize(f.net.table(d));
    pending.insert(pending.end(), std::make_move_iterator(msgs.begin()),
                   std::make_move_iterator(msgs.end()));
  }
  std::deque<dvm::Envelope> queue(
      std::make_move_iterator(pending.begin()),
      std::make_move_iterator(pending.end()));
  while (!queue.empty()) {
    const auto env = std::move(queue.front());
    queue.pop_front();
    for (auto& e : devices[env.dst]->on_message(env)) {
      queue.push_back(std::move(e));
    }
  }
  // The waypoint invariant is violated (P3), plain reachability is not.
  std::size_t waypoint_violations = 0;
  std::size_t reach_violations = 0;
  for (const auto& dev : devices) {
    for (const auto& v : dev->violations()) {
      if (v.invariant == plan1.id) ++waypoint_violations;
      if (v.invariant == plan2.id) ++reach_violations;
    }
  }
  EXPECT_GT(waypoint_violations, 0u);
  EXPECT_EQ(reach_violations, 0u);
}

TEST_F(VerifierTest, MemoryAccountingNonZero) {
  const auto plan = planner.plan(b.reachability(fig.P1(), fig.S, fig.D));
  VerifierNetwork net(fig, plan);
  net.initialize_all();
  EXPECT_GT(net.device(fig.A).memory_bytes(), 0u);
}

}  // namespace
}  // namespace tulkun::verifier
