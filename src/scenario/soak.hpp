// Soak runner and schedule fuzzer: drive the multi-process
// DistributedRuntime under continuous churn (scenario/workload.hpp) and
// transport chaos (scenario/chaos.hpp), then hold it to two oaths:
//
//  1. Convergence: the final canonical digest must be byte-identical to a
//     fault-free in-process ShardedRuntime replay of the same world (the
//     same oracle the differential tests use — oracle_digest() below is
//     that oracle, hoisted into the library so tests and soaks share it).
//  2. SLOs: p99 per-update verification latency and worst-case
//     epoch-recovery time, asserted from a live MetricsServer scrape when
//     one is configured (the soak observes itself the way an operator
//     would), or from locally collected phase outcomes otherwise.
//
// fuzz_schedules() extends the lockstep differential oracle into seeded
// schedule exploration: N chaos/churn schedules per base seed, every one
// required to converge; a divergent schedule is dumped via
// format_scenario() so it reproduces with --scenario-replay.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "eval/dist_run.hpp"
#include "scenario/spec.hpp"

namespace tulkun::scenario {

/// Fault-free ShardedRuntime replay of exactly the world every distributed
/// process rebuilds: install plans, post initial FIBs, replay steps
/// (erase steps resolve against the runtime-assigned id of the insert
/// they undo), digest. The harness must outlive the call.
struct OracleDigest {
  std::vector<std::string> rows;  // sorted canonical rows, all devices
  std::uint64_t violations = 0;
};
[[nodiscard]] OracleDigest oracle_digest(eval::Harness& harness,
                                         std::size_t n_updates,
                                         const ChurnProfile* churn = nullptr);

struct SloThresholds {
  /// p99 of per-update verification wall time, seconds (0 = not asserted).
  double p99_phase_s = 0.0;
  /// Worst tolerated epoch-recovery time, seconds (0 = not asserted).
  double max_recovery_s = 0.0;
  /// Memory-growth oath: max tolerated RSS growth between the start of
  /// the distributed run and its end, bytes (0 = not asserted). A soak
  /// that keeps verifying equivalent state while the resident set climbs
  /// is leaking.
  double max_rss_growth_bytes = 0.0;
  /// Max tolerated growth of the process-wide live-BDD-node count over
  /// the run (0 = not asserted); pairs with proc RSS to tell "BDD arenas
  /// leak" apart from "something else leaks".
  double max_bdd_live_growth = 0.0;
};

struct SoakOptions {
  eval::DatasetSpec spec;
  eval::HarnessOptions harness;
  net::TransportKind kind = net::TransportKind::Inproc;
  std::size_t device_procs = 2;
  /// Churn profile (events = stream length), chaos profile, kill schedule.
  /// Kills require kind uds|tcp (process isolation).
  ScenarioSpec scenario;
  /// Honour the generator's arrival timestamps (wall-clock pacing): the
  /// soak then runs for roughly events/rate_hz seconds. false replays the
  /// stream as fast as the runtime can drain it.
  bool pace = false;
  /// "ip:port" to serve live metrics on ("" = no server; port 0 picks a
  /// free one). When set, SLOs are asserted from an end-of-run HTTP
  /// scrape of this endpoint, not from in-process state.
  std::string metrics_listen;
  SloThresholds slo;
  /// Coordinator-tree fanout (0 = flat star): interior device ranks relay
  /// control and merge rollups, so kills may hit aggregators too.
  std::size_t tree_fanout = 0;
};

struct SoakReport {
  bool converged = false;  // digest byte-identical to the oracle
  bool slo_ok = true;
  /// Human-readable description of every failed assertion (empty = pass).
  std::vector<std::string> failures;
  std::size_t events = 0;       // update phases driven
  std::uint64_t violations = 0; // distributed run's verdicts
  std::uint32_t resets = 0;     // epoch bumps survived
  double wall_s = 0.0;
  double p50_phase_s = 0.0;
  double p99_phase_s = 0.0;
  /// Wall time of the slowest phase that absorbed a catch-up (0 = no kill
  /// recovered): the epoch-recovery SLO input.
  double max_recovery_s = 0.0;
  /// Every sample from the end-of-run metrics scrape (empty when no
  /// metrics_listen): Prometheus text parsed back to name -> value.
  std::map<std::string, double> scraped;

  [[nodiscard]] bool ok() const { return converged && slo_ok; }
};

/// Runs the soak to completion and checks both oaths. Throws only on
/// setup errors (bad options); assertion failures land in the report.
[[nodiscard]] SoakReport run_soak(const SoakOptions& opts);

struct FuzzOptions {
  eval::DatasetSpec spec;
  eval::HarnessOptions harness;
  std::size_t device_procs = 2;
  /// Template schedule: per-run churn/chaos seeds are derived from
  /// base_seed + run index, everything else is copied.
  ScenarioSpec base;
  std::uint64_t base_seed = 1;
  std::size_t schedules = 50;
  /// Directory to dump divergent schedules into ("" = don't dump).
  std::string dump_dir;
  /// Coordinator-tree fanout for every fuzzed schedule (0 = star).
  std::size_t tree_fanout = 0;
};

struct FuzzReport {
  std::size_t ran = 0;
  std::size_t divergent = 0;
  /// One entry per divergent schedule: description + dump path (if any).
  std::vector<std::string> failures;
  [[nodiscard]] bool ok() const { return divergent == 0; }
};

/// Sweeps `schedules` seeded chaos/churn schedules (inproc transports,
/// kills stripped — process isolation is the soak's job), requiring every
/// one to converge to its oracle digest.
[[nodiscard]] FuzzReport fuzz_schedules(const FuzzOptions& opts);

}  // namespace tulkun::scenario
