// The on-device verifier (§5, §8): owns the device's data plane copy and
// LEC table (the "LEC builder"), one DVM engine per installed invariant
// (the "verification agent"), and the link-state flooding agent. The
// runtime feeds it events (rule updates, messages, link events) and ships
// the envelopes it returns.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "dvm/engine.hpp"
#include "dvm/pathset.hpp"
#include "fib/update_stream.hpp"
#include "planner/planner.hpp"
#include "verifier/flooding.hpp"

namespace tulkun::verifier {

struct VerifierStats {
  std::uint64_t lec_builds = 0;
  std::uint64_t lec_patches = 0;
  std::uint64_t messages_handled = 0;
  /// Fault scenes observed that no installed invariant pre-specified;
  /// per §6 these must be reported to the planner.
  std::uint64_t unknown_scene_reports = 0;
  /// Wall time spent deriving LEC deltas + patching the LEC table on rule
  /// updates (the "lec-delta" phase; recompute/emit live in EngineStats).
  double lec_delta_seconds = 0.0;
};

class OnDeviceVerifier {
 public:
  OnDeviceVerifier(DeviceId dev, const topo::Topology& topo,
                   packet::PacketSpace& space, dvm::EngineConfig cfg = {});

  [[nodiscard]] DeviceId device() const { return dev_; }

  /// Installs an invariant's task set (the planner ships the DPVNet slice;
  /// we hand the engine the full DAG plus this device's identity, which is
  /// equivalent and simpler to serialize in-process).
  void install(const planner::InvariantPlan& plan);

  /// Installs a §7 multi-path comparison (path-collection tasks).
  void install_multipath(const planner::MultiPathPlan& plan);

  /// The comparator's collected per-side path sets for a session (empty
  /// until both sides have reported; only on the comparator device).
  [[nodiscard]] std::optional<std::pair<spec::PathSet, spec::PathSet>>
  multipath_view(InvariantId session) const;

  /// Loads the device's initial FIB and computes the initial LEC and CIBs
  /// (the §9.4 "initialization phase"). Returns messages to transmit.
  std::vector<dvm::Envelope> initialize(fib::FibTable fib);

  /// Applies one rule update (insert/erase) to the local FIB: recomputes
  /// the affected LEC region, patches the LEC table, and feeds the deltas
  /// to every engine. On insert, update.rule_id receives the assigned id.
  std::vector<dvm::Envelope> apply_rule_update(fib::FibUpdate& update);

  /// Handles a protocol message addressed to this device.
  std::vector<dvm::Envelope> on_message(const dvm::Envelope& env);

  /// A locally detected link event on an adjacent link.
  std::vector<dvm::Envelope> on_local_link_event(LinkId link, bool up);

  /// Sets an undo point (after every install): from here on, the first
  /// call that changes a part of the verifier — the FIB/LEC tables, one
  /// engine — keeps a copy of that part as it was at the mark.
  /// restore_undo_point() puts the copies back, returning the verifier to
  /// its state at the mark; a new mark drops the previous one. Until the
  /// first mark nothing is copied. runtime::DeviceProcess marks each
  /// device when a phase first touches it, so a crash elsewhere can undo
  /// the interrupted phase.
  void mark_undo_point();
  void restore_undo_point();

  /// Violations across all installed invariants.
  [[nodiscard]] std::vector<dvm::Violation> violations() const;

  /// Source-node results for one invariant (empty if not hosted here).
  [[nodiscard]] std::vector<std::pair<DeviceId, std::vector<dvm::CountEntry>>>
  source_results(InvariantId id) const;

  [[nodiscard]] const VerifierStats& stats() const { return stats_; }

  /// Aggregate engine stats across installed invariants.
  [[nodiscard]] dvm::EngineStats engine_totals() const;

  /// Test/debug snapshots of every installed engine's node tables,
  /// keyed by invariant id.
  [[nodiscard]] std::vector<
      std::pair<InvariantId, std::vector<dvm::DeviceEngine::NodeSnapshot>>>
  engine_snapshots() const;
  [[nodiscard]] const fib::FibTable& fib() const { return fib_; }
  [[nodiscard]] const fib::LecTable& lec() const { return lec_; }

  /// Approximate resident memory of verification state, in bytes (LEC +
  /// CIB predicates and counts) — the §9.4 memory metric.
  [[nodiscard]] std::size_t memory_bytes() const;

  /// Appends every BDD ref reachable from this verifier's state (FIB extra
  /// matches, LEC table, installed invariants, engine tables, violations).
  /// Together with any codec channel tables, this is the complete gc root
  /// set for a device whose space is private to the runtime.
  void collect_refs(std::vector<bdd::NodeRef>& out) const;

 private:
  /// Re-resolves the active fault scene of each engine from the flooding
  /// agent's failed-link set.
  void resync_scenes(std::vector<dvm::Envelope>& out);

  /// Undo-point copies, each taken before the part's first change.
  void save_tables();
  void save_engine(std::size_t i);
  void save_multipath(std::size_t i);
  void save_all_engines();

  struct Installed {
    InvariantId id = 0;
    std::shared_ptr<const dpvnet::DpvNet> dag;
    std::shared_ptr<const spec::Invariant> inv;
    std::vector<spec::FaultScene> scenes;
    std::unique_ptr<dvm::DeviceEngine> engine;
  };

  struct InstalledMultiPath {
    InvariantId id = 0;
    std::shared_ptr<const dpvnet::DpvNet> dag_a;
    std::shared_ptr<const dpvnet::DpvNet> dag_b;
    std::shared_ptr<const spec::MultiPathInvariant> inv;
    std::unique_ptr<dvm::PathSetEngine> engine;
  };

  DeviceId dev_;
  const topo::Topology* topo_;
  packet::PacketSpace* space_;
  dvm::EngineConfig cfg_;
  fib::FibTable fib_;
  fib::LecBuilder builder_;
  fib::LecTable lec_;
  bool initialized_ = false;
  FloodingAgent flooding_;
  std::vector<Installed> installed_;
  std::vector<InstalledMultiPath> multipath_;
  VerifierStats stats_;

  struct UndoPoint {
    struct Tables {
      fib::FibTable fib;
      fib::LecBuilder builder;
      fib::LecTable lec;
      bool initialized = false;
      FloodingAgent flooding;
    };
    std::optional<Tables> tables;
    VerifierStats stats;
    // Keyed by index into installed_ / multipath_.
    std::map<std::size_t, std::unique_ptr<dvm::DeviceEngine>> engines;
    std::map<std::size_t, std::unique_ptr<dvm::PathSetEngine>> multipath;
  };
  std::optional<UndoPoint> undo_;
};

}  // namespace tulkun::verifier
