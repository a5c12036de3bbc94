// Multi-process evaluation runs: a forking launcher plus manual
// coordinator/device entry points for the DistributedRuntime.
//
// The common path is dist_run(): it forks one device process per rank
// (re-exec'ing this binary with a --tulkun-device-proc marker argv, so no
// fork-with-threads hazards), runs the coordinator in-process, supervises
// the children (a dead rank is re-forked with a bumped incarnation, which
// triggers the coordinator's catch-up recovery), and returns wall times,
// verdicts, the canonical state digest, and merged runtime + transport
// metrics. kind == Inproc runs the same protocol on loopback transports
// and threads instead of processes.
//
// For manual multi-host runs, dist_run_coordinator()/dist_run_device()
// accept explicit per-rank endpoints (the --role/--listen/--peers CLI
// path).
#pragma once

#include "eval/harness.hpp"
#include "net/socket_transport.hpp"
#include "obs/trace.hpp"
#include "scenario/spec.hpp"

namespace tulkun::eval {

struct DistOptions {
  net::TransportKind kind = net::TransportKind::Unix;
  std::size_t device_procs = 2;
  std::size_t n_updates = 8;
  /// Rendezvous directory for Unix sockets (empty = fresh mkdtemp).
  std::string socket_dir;
  /// First TCP port; rank r listens on base_port + r (0 = derive from pid).
  std::uint16_t base_port = 0;
  /// Chaos kill schedule (requires process isolation, uds|tcp): each
  /// entry's rank _exits on its phase's Begin, or mid-cascade after the
  /// entry's `after_frames` Data frames of the phase (first incarnation
  /// only); the supervisor re-forks it and the run must reconverge through
  /// catch-up recovery. A rank's earliest-phase entry wins.
  std::vector<scenario::KillSpec> kills;
  /// Transport fault injection: when chaos.enabled(), *every* rank's
  /// transport — coordinator included — is wrapped in a
  /// scenario::ChaosTransport (both sides must speak the chaos framing).
  scenario::ChaosProfile chaos;
  /// Update stream source: the scenario churn generator when set, the
  /// legacy eval::random_updates stream when nullopt. Shipped to device
  /// processes via --churn= so every rank builds the same world.
  std::optional<scenario::ChurnProfile> churn;
  /// Ship per-rank flight-recorder buffers back with the verdicts and
  /// surface them in DistRunResult::traces (requires obs tracing enabled
  /// in this process; child processes inherit the setting via argv).
  bool collect_trace = false;
  /// Coordinator-tree fanout (0 = flat star; see coord::Tree). Interior
  /// device ranks relay control downward and merge acks/rollups upward.
  std::size_t fanout = 0;
  /// Run a collect round after every phase instead of only at the end —
  /// the scaling benches measure steady-state rollup bytes this way.
  bool collect_every_phase = false;
  /// Coordinator-side soak hooks (never cross the wire). phase_at_s[i] is
  /// the earliest wall-clock offset (from run start) at which update phase
  /// i may begin — the generator's arrival times, honoured by sleeping.
  /// on_phase observes every completed phase (0 = burst) for SLO sampling.
  struct PhaseHooks {
    std::vector<double> phase_at_s;
    std::function<void(std::size_t phase,
                       const runtime::DistCoordinator::PhaseOutcome&)>
        on_phase;
  } hooks;
};

struct DistRunResult {
  double burst_wall_seconds = 0.0;
  Samples incremental_wall_seconds;
  std::uint64_t violations = 0;
  /// Sorted canonical digest rows over every device (runtime/digest.hpp);
  /// byte-comparable against an in-process ShardedRuntime run.
  std::vector<std::string> rows;
  runtime::RuntimeMetrics metrics;
  std::uint32_t resets = 0;  // catch-ups (epoch bumps) survived (chaos runs)
  /// Per-rank contributions of the final collect round, sorted by rank
  /// (recovery tests read world_rebuilds / snapshot_rows_adopted here).
  std::vector<runtime::VerdictEntry> entries;
  /// Flight-recorder snapshots: one per device rank that shipped a trace
  /// blob, plus the coordinator's own drain appended last (when tracing).
  std::vector<obs::TraceSnapshot> traces;
};

/// Forking launcher (or threads for Inproc). Blocks until the run is done.
[[nodiscard]] DistRunResult dist_run(const DatasetSpec& spec,
                                     const HarnessOptions& opts,
                                     const DistOptions& dist);

/// Coordinator role over explicit endpoints (index = rank; size = device
/// processes + 1). The device processes must be started separately.
[[nodiscard]] DistRunResult dist_run_coordinator(
    const DatasetSpec& spec, const HarnessOptions& opts,
    std::size_t n_updates, const std::vector<net::Endpoint>& endpoints,
    std::size_t fanout = 0);

/// Device role over explicit endpoints; returns when the coordinator
/// finishes the run. When `chaos.enabled()`, the transport is wrapped in a
/// ChaosTransport (the coordinator must be wrapped too); `churn` selects
/// the scenario update stream for the locally rebuilt world.
void dist_run_device(const DatasetSpec& spec, const HarnessOptions& opts,
                     std::size_t n_updates,
                     const std::vector<net::Endpoint>& endpoints,
                     net::PeerId rank, std::uint32_t incarnation,
                     const scenario::KillSpec* kill = nullptr,
                     const scenario::ChaosProfile& chaos = {},
                     const scenario::ChurnProfile* churn = nullptr,
                     std::size_t fanout = 0);

/// Child-process entry point. Every binary that calls dist_run() must
/// invoke this first thing in main(); when argv carries the
/// --tulkun-device-proc marker the process runs the device role to
/// completion and this returns true (the caller must then return 0).
bool maybe_run_device_role(int argc, char** argv);

}  // namespace tulkun::eval
