// dist_cli: run the multi-process DistributedRuntime by hand, one role per
// invocation — the shape of a real deployment where every switch hosts its
// own verifier process and a controller-side coordinator drives phases.
//
// Single-command local run (forks its own device processes):
//   ./dist_cli --dataset=INet2 --updates=8 --transport=uds --procs=2
//
// Manual 3-process run on one machine (three terminals, any start order —
// senders redial with backoff until their peer listens; each line is one
// command):
//   ./dist_cli --role=device --rank=1 --transport=uds
//       --listen=/tmp/tk/p1.sock --peers=/tmp/tk/p0.sock,/tmp/tk/p2.sock
//   ./dist_cli --role=device --rank=2 --transport=uds
//       --listen=/tmp/tk/p2.sock --peers=/tmp/tk/p0.sock,/tmp/tk/p1.sock
//   ./dist_cli --role=coordinator --transport=uds
//       --listen=/tmp/tk/p0.sock --peers=/tmp/tk/p1.sock,/tmp/tk/p2.sock
//
// --peers lists the OTHER ranks' endpoints in rank order; --listen is this
// process's own endpoint. Every process must name the same dataset, seed
// and update count, because each rebuilds the world locally from them.
#include <pthread.h>
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <thread>

#include "eval/dist_run.hpp"
#include "obs/export.hpp"
#include "obs/metrics_server.hpp"
#include "obs/trace.hpp"

using namespace tulkun;

namespace {

struct CliArgs {
  std::string role = "local";  // local | coordinator | device
  std::string dataset = "INet2";
  std::size_t updates = 8;
  std::uint64_t seed = 42;
  std::size_t max_destinations = 4;
  net::TransportKind kind = net::TransportKind::Unix;
  std::size_t procs = 2;  // local role only
  std::uint32_t kill_phase = runtime::DeviceProcess::kNoKillPhase;
  std::size_t tree_fanout = 0;  // 0 = flat star coordination
  net::PeerId rank = 1;  // device role only
  std::string listen;
  std::string peers;
  /// Enables the flight recorder; local/coordinator roles write the merged
  /// Chrome trace here on completion (and on SIGINT). A device role uses the
  /// flag only to turn its recorder on — its records ship to the
  /// coordinator with the verdicts, no file is written.
  std::string trace_out;
  std::string metrics_listen;  // serve obs::Registry counters over HTTP
};

CliArgs parse(int argc, char** argv) {
  CliArgs a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](const char* prefix) -> const char* {
      return arg.rfind(prefix, 0) == 0 ? arg.c_str() + std::strlen(prefix)
                                       : nullptr;
    };
    if (const char* v = value("--role=")) {
      a.role = v;
    } else if (const char* v = value("--dataset=")) {
      a.dataset = v;
    } else if (const char* v = value("--updates=")) {
      a.updates = std::stoul(v);
    } else if (const char* v = value("--seed=")) {
      a.seed = std::stoull(v);
    } else if (const char* v = value("--max-dst=")) {
      a.max_destinations = std::stoul(v);
    } else if (const char* v = value("--transport=")) {
      a.kind = net::parse_transport_kind(v);
    } else if (const char* v = value("--procs=")) {
      a.procs = std::stoul(v);
    } else if (const char* v = value("--kill-phase=")) {
      a.kill_phase = static_cast<std::uint32_t>(std::stoul(v));
    } else if (const char* v = value("--tree-fanout=")) {
      a.tree_fanout = std::stoul(v);
    } else if (const char* v = value("--rank=")) {
      a.rank = static_cast<net::PeerId>(std::stoul(v));
    } else if (const char* v = value("--listen=")) {
      a.listen = v;
    } else if (const char* v = value("--peers=")) {
      a.peers = v;
    } else if (const char* v = value("--trace-out=")) {
      a.trace_out = v;
    } else if (const char* v = value("--metrics-listen=")) {
      a.metrics_listen = v;
    } else if (arg == "--help") {
      std::cout
          << "roles:\n"
             "  --role=local (default): fork device processes and run\n"
             "      [--procs=N --kill-phase=K]\n"
             "  --role=coordinator --listen=EP --peers=EP1,..,EPN\n"
             "  --role=device --rank=R --listen=EP --peers=EP0,..\n"
             "common: --dataset=NAME --updates=N --seed=N --max-dst=N\n"
             "        --transport=inproc|uds|tcp\n"
             "        --tree-fanout=N (0 = flat star coordination)\n"
             "        --trace-out=FILE (Chrome trace JSON; see README)\n"
             "        --metrics-listen=IP:PORT (Prometheus text endpoint)\n";
      std::exit(0);
    } else {
      throw Error("unknown flag " + arg + " (see --help)");
    }
  }
  return a;
}

/// Full rank-ordered endpoint table: --peers (the other ranks, in rank
/// order) with --listen spliced in at this process's own rank.
std::vector<net::Endpoint> endpoint_table(const CliArgs& a, net::PeerId self) {
  if (a.listen.empty() || a.peers.empty()) {
    throw Error("--role=" + a.role + " needs --listen and --peers");
  }
  std::vector<net::Endpoint> eps;
  std::size_t pos = 0;
  while (true) {
    const std::size_t comma = a.peers.find(',', pos);
    const std::string addr = comma == std::string::npos
                                 ? a.peers.substr(pos)
                                 : a.peers.substr(pos, comma - pos);
    if (!addr.empty()) eps.push_back({a.kind, addr});
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  if (self > eps.size()) throw Error("--rank exceeds the peer table");
  eps.insert(eps.begin() + self, {a.kind, a.listen});
  return eps;
}

// ---------------------------------------------------------------------------
// Clean Ctrl-C: SIGINT/SIGTERM are blocked in every thread (the mask is set
// before any thread exists) and claimed by one sigwait thread, which — if
// the run is still going — drains the local flight recorder to --trace-out,
// prints a final counter snapshot, and exits with the conventional 130.
// Forked device children unblock the inherited mask in
// maybe_run_device_role, so the process group still dies on Ctrl-C.
// ---------------------------------------------------------------------------

std::atomic<bool> g_run_done{false};
std::string g_trace_out;  // set once in main before the watcher starts

void flush_observability(const char* cause) {
  if (obs::trace_enabled() && !g_trace_out.empty()) {
    try {
      obs::write_chrome_trace_file(g_trace_out, {obs::drain_snapshot()});
      std::cerr << cause << ": flushed partial trace to " << g_trace_out
                << "\n";
    } catch (const std::exception& e) {
      std::cerr << cause << ": trace flush failed: " << e.what() << "\n";
    }
  }
  std::cerr << "-- final metrics snapshot --\n"
            << obs::render_prometheus_text();
}

void start_signal_watcher() {
  // Shells start background jobs with SIGINT set to SIG_IGN, and an
  // ignored signal is discarded even while blocked — sigwait would never
  // see it. Restore the default disposition first.
  struct sigaction dfl {};
  dfl.sa_handler = SIG_DFL;
  sigaction(SIGINT, &dfl, nullptr);
  sigaction(SIGTERM, &dfl, nullptr);
  sigset_t set;
  sigemptyset(&set);
  sigaddset(&set, SIGINT);
  sigaddset(&set, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &set, nullptr);
  std::thread([set] {
    int sig = 0;
    if (sigwait(&set, &sig) != 0) return;
    if (g_run_done.load()) return;  // normal exit already reporting
    flush_observability(sig == SIGINT ? "SIGINT" : "SIGTERM");
    _exit(130);
  }).detach();
}

void report(const eval::DistRunResult& res) {
  std::cout << "burst: " << format_duration(res.burst_wall_seconds)
            << ", violations: " << res.violations
            << ", resets survived: " << res.resets << "\n";
  if (!res.incremental_wall_seconds.empty()) {
    std::cout << "incremental: p50 "
              << format_duration(res.incremental_wall_seconds.quantile(0.5))
              << ", p99 "
              << format_duration(res.incremental_wall_seconds.quantile(0.99))
              << " over " << res.incremental_wall_seconds.size()
              << " updates\n";
  }
  runtime::print_metrics(std::cout, res.metrics);
  std::cout << "state digest rows: " << res.rows.size() << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  try {
    // Re-exec entry for the local role's forked device processes.
    if (eval::maybe_run_device_role(argc, argv)) return 0;
    const auto args = parse(argc, argv);
    const auto& spec = eval::dataset(args.dataset);
    eval::HarnessOptions opts;
    opts.seed = args.seed;
    opts.max_destinations = args.max_destinations;

    g_trace_out = args.trace_out;
    if (!args.trace_out.empty()) obs::set_trace_enabled(true);
    start_signal_watcher();
    std::unique_ptr<obs::MetricsServer> metrics;
    if (!args.metrics_listen.empty()) {
      metrics = std::make_unique<obs::MetricsServer>();
      metrics->start(args.metrics_listen);
      std::cout << "metrics: http://" << metrics->address() << "/metrics\n";
    }
    std::vector<obs::TraceSnapshot> traces;

    if (args.role == "local") {
      eval::DistOptions dist;
      dist.kind = args.kind;
      dist.device_procs = args.procs;
      dist.n_updates = args.updates;
      if (args.kill_phase != runtime::DeviceProcess::kNoKillPhase) {
        dist.kills.push_back({1, args.kill_phase});
      }
      dist.collect_trace = !args.trace_out.empty();
      dist.fanout = args.tree_fanout;
      auto res = eval::dist_run(spec, opts, dist);
      traces = std::move(res.traces);
      report(res);
    } else if (args.role == "coordinator") {
      const auto eps = endpoint_table(args, runtime::kCoordinatorRank);
      auto res = eval::dist_run_coordinator(spec, opts, args.updates, eps,
                                            args.tree_fanout);
      traces = std::move(res.traces);
      report(res);
    } else if (args.role == "device") {
      const auto eps = endpoint_table(args, args.rank);
      eval::dist_run_device(spec, opts, args.updates, eps, args.rank,
                            /*incarnation=*/0, /*kill=*/nullptr,
                            /*chaos=*/{}, /*churn=*/nullptr, args.tree_fanout);
      std::cout << "device rank " << args.rank << " done\n";
    } else {
      throw Error("unknown --role=" + args.role);
    }

    g_run_done.store(true);
    if (metrics) metrics->stop();
    if (!args.trace_out.empty() && args.role != "device") {
      traces.push_back(obs::drain_snapshot());
      obs::write_chrome_trace_file(args.trace_out, traces);
      std::cout << "wrote trace " << args.trace_out << "\n";
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
