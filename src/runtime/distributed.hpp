// Multi-process DistributedRuntime: devices partitioned across OS
// processes, exchanging DVM traffic over a real net::Transport.
//
// Process model. Rank 0 is the coordinator; ranks 1..P are device
// processes, each owning the devices with `owner_rank(dev, P) == rank`.
// Every process deterministically rebuilds the whole world — topology,
// invariant plans, initial FIBs, and the update stream — from a
// WorldBuilder (ultimately a dataset spec + seed), so nothing but DVM
// messages, verdicts and control traffic ever crosses the wire.
//
// Coordination fabric. Control traffic rides a fanout-F coord::Tree over
// the ranks: Begin/Collect and probe waves flow root -> children and are
// relayed downward by interior device ranks, which also merge their
// subtree's probe acks and verdict rollups before forwarding one message
// to their parent. Root fan-in is therefore O(F) per wave instead of O(P).
// fanout 0 (the default) degenerates to the flat star. Digests ship as
// per-device deltas against the rows last shipped, with a full anchor
// whenever the sender's baseline is empty; interior ranks maintain a
// mirror of their subtree's rows so they can serve snapshots during
// recovery. Data frames stay direct rank-to-rank in every mode — the tree
// is coordination only.
//
// Execution is phased: phase 0 loads every initial FIB (the burst), phase
// k >= 1 applies update step k-1 on its owning process. Between phases the
// coordinator runs Mattern-style four-counter termination detection: probe
// waves collect per-process (sent, received, idle) snapshots, and a phase
// is converged when two consecutive waves show every process idle at the
// current phase with identical, balanced global send/receive totals. This
// replaces the ShardedRuntime's shared-atomic quiescence count, which
// cannot exist across address spaces.
//
// Fault recovery (catch-up). When a device process dies, its supervisor
// re-forks it with a higher incarnation number, and the new Hello starts
// a recovery at the coordinator:
//
//  1. Drain the survivors at the old epoch (direct probe waves with
//     pairwise counters: frames addressed to the dead never settle).
//  2. Bump the epoch and send every rank a Catchup naming the reborn
//     ranks. The reborn rank's nearest live tree ancestor ships it a
//     digest snapshot to adopt as its delta baseline.
//  3. Survivors undo the interrupted phase k: every verifier phase k
//     touched kept a copy of each part (FIB/LEC tables, one engine per
//     invariant) before the phase first changed it; the survivors restore
//     those copies and drop phase k from their send logs. The dead life may have
//     crashed mid-cascade, after the survivors took part of its phase-k
//     traffic; undoing the phase keeps that traffic from being applied
//     twice once the reborn rank redoes it.
//  4. Re-run phases 0..k-1, each to global termination, then phase k on
//     every rank. In the replayed phases survivors do none of the work
//     again; on Begin p they re-send the phase-p frames their send logs
//     hold for the reborn ranks. Reborn ranks redo their own phase-p work
//     and process those frames; their emissions of phases below k toward
//     survivors are logged but not sent (the survivors processed the
//     originals). Every Data frame carries the phase whose work produced
//     it, so each reborn rank sees its previous life's inputs phase by
//     phase and converges to the same state.
//
// No survivor rebuilds a world: the undo copies cover one phase, and
// phases run one at a time. Every data frame is epoch-tagged, so
// stragglers from the previous life are dropped instead of corrupting
// rebuilt state.
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>

#include "coord/digest_store.hpp"
#include "coord/tree.hpp"
#include "net/transport.hpp"
#include "obs/trace.hpp"
#include "runtime/dist_proto.hpp"
#include "runtime/sharded_runtime.hpp"

namespace tulkun::runtime {

inline constexpr net::PeerId kCoordinatorRank = 0;

/// Sentinel a reborn process starts at: no epoch adopted yet. Every data
/// frame and Begin parks until the coordinator's Catchup assigns the real
/// epoch, so pre-death stragglers can be told apart from replay traffic.
inline constexpr std::uint32_t kEpochUnset = 0xffffffffu;

/// The device process owning a device: ranks 1..n_device_procs, round-robin.
[[nodiscard]] inline net::PeerId owner_rank(DeviceId dev,
                                            std::size_t n_device_procs) {
  return 1 + static_cast<net::PeerId>(dev % n_device_procs);
}

/// Everything a process must agree on with its peers, rebuilt locally per
/// epoch. `keepalive` owns whatever PacketSpaces back the plans, tables
/// and update rules (predicates are localized into per-device spaces
/// through the wire codec before use, exactly like ShardedRuntime).
///
/// A world may be shared between in-process ranks (the harness builds it
/// once); `localize_mu`, when set, serializes all reads of the shared
/// source spaces during build_world's pre-localization so concurrent ranks
/// never race on the shared BDD manager. After build_world returns, phase
/// execution touches only per-device state.
struct DistWorld {
  std::shared_ptr<void> keepalive;
  std::shared_ptr<std::mutex> localize_mu;
  std::vector<planner::InvariantPlan> plans;
  std::vector<fib::FibTable> tables;  // indexed by DeviceId
  struct Step {
    fib::FibUpdate update;
    std::int32_t erase_of = -1;  // >= 0: erase the rule of that insert step
  };
  std::vector<Step> steps;
};

/// Must be deterministic: every call (in any process, any epoch) returns
/// an equivalent world.
using WorldBuilder = std::function<DistWorld()>;

/// One device-owning process (rank >= 1). Owns a single worker thread's
/// worth of state; the transport's receive path only enqueues (and, on
/// interior tree ranks, relays control frames downward and merges child
/// probe acks — both latency-critical and cheap).
class DeviceProcess {
 public:
  static constexpr std::uint32_t kNoKillPhase = 0xffffffffu;

  struct Config {
    net::PeerId rank = 1;
    std::size_t n_device_procs = 1;
    dvm::EngineConfig engine;
    std::uint32_t incarnation = 0;
    /// Coordinator-tree fanout; 0 = flat star (see coord::Tree).
    std::size_t fanout = 0;
    /// Chaos hook (first incarnation only): _exit the process when this
    /// phase's Begin arrives — Data frames of the phase that overtook the
    /// Begin may already have been processed — or, when
    /// `kill_after_frames` is N > 0, right after processing the Nth Data
    /// frame of the phase, in the middle of its cascade. A rank that sees
    /// fewer frames of the phase does not die.
    std::uint32_t kill_at_phase = kNoKillPhase;
    std::uint32_t kill_after_frames = 0;
  };

  DeviceProcess(net::Transport& transport, const topo::Topology& topo,
                WorldBuilder builder, Config cfg);

  /// Starts the transport, sends Hello, and processes work until the
  /// coordinator's Done arrives. The caller stops the transport afterward.
  void run();

 private:
  struct OwnedDevice {
    DeviceId dev = kNoDevice;
    std::unique_ptr<packet::PacketSpace> space;
    std::unique_ptr<verifier::OnDeviceVerifier> verifier;
    /// Pre-localized at build time (under DistWorld::localize_mu) so phase
    /// execution never reads the shared world's spaces.
    fib::FibTable local_init;
  };

  void on_frame(net::PeerId from, std::vector<std::uint8_t> frame);
  void relay_to_children(const std::vector<std::uint8_t>& frame);
  void handle_probe(const DistProbe& probe,
                    const std::vector<std::uint8_t>& frame);
  void handle_probe_ack(net::PeerId from, const DistProbeAck& ack);
  [[nodiscard]] DistProbeAck make_ack_locked(std::uint32_t wave,
                                             bool with_pairs);
  void build_world();
  void process(net::PeerId from, DistMsg& msg);
  void run_phase(const DistBegin& begin);
  /// Applies one phase's own work (idempotent per phase).
  void apply_phase(std::uint32_t phase);
  /// Marks `od`'s verifier's undo point the first time `phase` touches
  /// it (what a catch-up interrupting the phase restores).
  void save_undo(OwnedDevice& od, std::uint32_t phase);
  /// Survivor side of a catch-up: returns every owned verifier to its
  /// state before the interrupted `phase` and forgets the phase's own work
  /// and logged frames, so the phase re-runs from its start.
  void roll_back(std::uint32_t phase);
  /// Survivor side of a catch-up: re-sends to the reborn ranks the frames
  /// of `phase` that the send logs held for them when the Catchup came.
  void resend_logged(std::uint32_t phase);
  void handle_catchup(const DistCatchup& cu);
  void handle_snapshot(const DistSnapshot& snap);
  void handle_collect(const DistCollect& collect);
  void handle_rollup(DistRollup& rollup);
  void handle_data(net::PeerId from, DistData& data);
  /// Sends `outs` (produced by the work of `phase`), logging every
  /// cross-rank frame. On a reborn rank, frames of phases below the
  /// catch-up's next phase are not sent to survivors: they processed the
  /// originals before the crash.
  void route(std::vector<dvm::Envelope> outs, std::uint32_t phase);
  /// Computes (or re-serves, for a re-asked round) this rank's
  /// VerdictEntry and feeds it into the rollup for `seq`.
  void contribute_entry(std::uint64_t seq);
  void maybe_flush_rollup();
  void revive_parked(std::uint32_t epoch);
  [[nodiscard]] OwnedDevice* owned(DeviceId dev);
  [[nodiscard]] std::vector<std::uint32_t> devices_of(net::PeerId rank) const;
  [[nodiscard]] bool is_reborn_peer(net::PeerId r) const;

  net::Transport* transport_;
  const topo::Topology* topo_;
  WorldBuilder builder_;
  Config cfg_;
  coord::Tree tree_;

  // Worker-owned state (no lock needed).
  DistWorld world_;
  bool world_built_ = false;  // plans/tables, built once per process
  std::vector<OwnedDevice> devices_;
  bool devices_built_ = false;
  std::uint64_t world_rebuilds_ = 0;  // verifier rebuilds beyond the first
  std::vector<std::uint64_t> step_rule_ids_;
  std::vector<fib::Rule> local_step_rules_;  // pre-localized insert rules
  bdd::SerializeCache transfer_cache_;
  RuntimeMetrics local_;
  std::set<std::uint32_t> applied_phases_;
  // The phase in flight and the owned devices whose undo point it set.
  std::optional<std::uint32_t> undo_phase_;
  std::set<DeviceId> undo_devices_;
  std::uint32_t kill_frames_seen_ = 0;  // Data frames of the kill phase
  // Per-destination log of every cross-rank Data frame sent this run;
  // replayed (re-tagged to the new epoch) toward reborn ranks during
  // catch-up, and kept across catch-ups so later crashes can be served.
  std::map<net::PeerId, std::vector<DistData>> send_log_;
  // The last Catchup: who is reborn, its next phase, and (survivor side)
  // how much of each reborn rank's log was sent to the dead life — later
  // entries reached the new one directly.
  std::vector<std::uint32_t> reborn_set_;
  std::uint32_t catchup_phase_ = 0;
  std::map<net::PeerId, std::size_t> resend_limit_;
  // Delta-digest state: rows last shipped per owned device, the cached
  // entry for the current collect round (re-asks must be byte-identical),
  // and — on interior tree ranks — the subtree mirror.
  coord::DigestStore baseline_;
  std::uint64_t own_seq_ = kNoCollectSeq;
  std::optional<VerdictEntry> own_entry_;
  coord::DigestStore mirror_;
  std::uint64_t mirror_applied_seq_ = kNoCollectSeq;
  std::uint64_t rollup_seq_ = kNoCollectSeq;
  std::uint32_t rollup_epoch_ = 0;
  bool rollup_flushed_ = false;
  std::map<std::uint32_t, VerdictEntry> rollup_entries_;  // by rank
  std::uint64_t snapshot_rows_adopted_ = 0;
  std::optional<DistSnapshot> pending_snapshot_;
  // Flight-recorder records drained so far. Accumulated (not just the last
  // drain) because the coordinator may re-broadcast Collect after a
  // timeout and a drain consumes — a re-ask must not ship an empty blob.
  obs::TraceSnapshot trace_acc_;
  bool done_ = false;

  // Shared with the transport thread (queue, counters, probe snapshots).
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::pair<net::PeerId, DistMsg>> queue_;
  // Data frames and Begins from a future (or not-yet-adopted) epoch.
  std::vector<std::pair<net::PeerId, DistMsg>> parked_;
  bool busy_ = false;
  std::uint32_t epoch_ = 0;
  std::uint64_t sent_ = 0;      // cross-process Data frames, current epoch
  std::uint64_t received_ = 0;  // counted when processed, not enqueued
  std::map<std::uint32_t, std::uint64_t> sent_by_;  // per-destination rank
  std::map<std::uint32_t, std::uint64_t> recv_by_;  // per-source rank
  std::int64_t completed_phase_ = -1;
  // Interior-rank probe aggregation for the current (epoch, wave).
  std::uint32_t probe_epoch_ = 0;
  std::uint32_t probe_wave_ = 0;
  std::map<net::PeerId, DistProbeAck> probe_acks_;  // child acks
  bool probe_flushed_ = false;
};

/// The coordinator (rank 0): drives phases, detects termination, and
/// collects verdicts. One instance per run; not thread-safe (drive it from
/// a single thread).
class DistCoordinator {
 public:
  struct Config {
    std::size_t n_device_procs = 1;
    std::size_t fanout = 0;  // coordinator-tree fanout; 0 = star
    double probe_interval_s = 0.002;
    /// Patience for hellos/acks/verdicts before re-broadcasting.
    double wait_step_s = 0.05;
    /// Ceiling for the adaptive patience. When a probe wave or collect
    /// round times out incomplete, the next round waits twice as long, up
    /// to this cap. Without the backoff a peer whose round-trip exceeds
    /// `wait_step_s` (e.g. a gray-failed link adding 50 ms each way) can
    /// never land an ack inside the window and the coordinator re-probes
    /// forever. Probe waves keep the patience they learned for the rest
    /// of the run (a wave ends as soon as its last ack lands, so a long
    /// window costs nothing when peers answer), while a collect run starts
    /// over from `wait_step_s`.
    double wait_step_max_s = 2.0;
    /// Gray-aggregator fallback (tree mode only). A stalled-not-dead
    /// interior rank blocks its whole subtree's rollups while every
    /// liveness edge stays up; when a collect round times out and either a
    /// direct child's link has been rx-silent longer than
    /// `gray_collect_stale_s` or the round has missed
    /// `gray_collect_misses` consecutive waits, the round is re-asked with
    /// direct replies (every rank answers the root straight, bypassing
    /// aggregation). 0 disables the staleness trigger / the miss trigger
    /// respectively.
    double gray_collect_stale_s = 1.0;
    std::uint32_t gray_collect_misses = 4;
  };

  struct PhaseOutcome {
    double wall_seconds = 0.0;
    std::uint32_t resets = 0;  // catch-ups (epoch bumps) during this phase
  };

  struct Collected {
    std::uint64_t violations = 0;
    std::vector<std::string> rows;  // sorted canonical digest, all devices
    RuntimeMetrics metrics;         // merged over device processes
    std::uint32_t epoch = 0;        // final epoch (recoveries survived)
    /// Per-rank contributions of the final collect round, sorted by rank
    /// (the recovery differential tests read world_rebuilds and
    /// snapshot_rows_adopted off these).
    std::vector<VerdictEntry> entries;
    /// Per-rank flight-recorder snapshots (one entry per shipped blob;
    /// empty when tracing is off). The coordinator's own records are
    /// appended by eval::dist_run, not here.
    std::vector<obs::TraceSnapshot> traces;
  };

  DistCoordinator(net::Transport& transport, Config cfg);

  /// Starts the transport and blocks until every device process helloed.
  void start();

  /// Runs the next phase to convergence (catching reborn device processes
  /// up first).
  PhaseOutcome run_phase();

  /// Collects verdicts, digests and metrics from every device process.
  [[nodiscard]] Collected collect();

  /// Broadcasts Done so device processes exit their run() loops.
  void shutdown();

 private:
  void on_frame(net::PeerId from, std::vector<std::uint8_t> frame);
  /// Control broadcast: root's tree children in tree mode (interior ranks
  /// relay downward), every rank in star mode.
  void broadcast(const DistMsg& msg);
  /// Direct broadcast to every device rank, bypassing the tree (recovery
  /// traffic — a dead interior rank must not cut its subtree off).
  void broadcast_direct(const DistMsg& msg);
  /// True when phase `k` terminated; false when interrupted by a rebirth.
  bool await_termination(std::uint32_t k);
  [[nodiscard]] bool rebirth_pending();
  /// Catch-up recovery: drain survivors at the old epoch, broadcast
  /// Catchup + snapshots, then re-run phases 0..upto_phase-1. Restarts
  /// with the union of reborn ranks if another rank dies mid-recovery.
  void absorb_catchup(std::uint32_t upto_phase, PhaseOutcome& outcome);
  /// Stage 1 of a catch-up: true once the survivors (every rank outside
  /// `reborn`) are idle with balanced pairwise counters at `epoch` in two
  /// consecutive complete waves; false when another rebirth interrupts.
  bool drain_survivors(std::uint32_t epoch,
                       const std::vector<std::uint32_t>& reborn);
  /// One direct probe wave; fills `acks` with the matching-epoch answers
  /// received within the adaptive patience window (`expected` of them
  /// short-circuits the wait).
  void direct_wave(std::uint32_t epoch, double patience_s,
                   std::size_t expected,
                   std::map<net::PeerId, DistProbeAck>& acks);
  /// True when a stalled collect round should fall back to direct replies:
  /// an interior direct child's link is rx-stale past
  /// `gray_collect_stale_s`, or the round missed `gray_collect_misses`
  /// waits in a row (a chaos-gray peer keeps heartbeats — and therefore
  /// rx freshness — alive while its rollups stall).
  [[nodiscard]] bool gray_aggregator(std::uint32_t misses) const;
  /// Doubles the probe-wave patience after an incomplete wave (capped).
  void grow_probe_patience();

  net::Transport* transport_;
  Config cfg_;
  coord::Tree tree_;
  std::uint32_t next_phase_ = 0;
  coord::DigestStore store_;  // authoritative accepted digest rows
  std::uint64_t store_applied_seq_ = kNoCollectSeq;
  std::uint64_t collect_seq_ = 0;  // last issued round
  double probe_patience_s_;        // learned probe-wave window

  std::mutex mu_;
  std::condition_variable cv_;
  std::map<net::PeerId, std::uint32_t> incarnations_;
  bool world_started_ = false;
  bool rebirth_wanted_ = false;
  std::set<std::uint32_t> reborn_pending_;  // sticky across catch-up retries
  std::uint32_t epoch_ = 0;
  std::uint32_t wave_ = 0;
  std::map<net::PeerId, DistProbeAck> acks_;  // for the current wave
  std::map<std::uint32_t, VerdictEntry> collect_entries_;  // current round
};

}  // namespace tulkun::runtime
