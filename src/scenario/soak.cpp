#include "scenario/soak.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <mutex>

#include "bdd/manager.hpp"
#include "core/stats.hpp"
#include "obs/metrics_server.hpp"
#include "obs/registry.hpp"
#include "runtime/metrics.hpp"
#include "runtime/digest.hpp"
#include "runtime/sharded_runtime.hpp"
#include "scenario/workload.hpp"

namespace tulkun::scenario {

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// One-shot HTTP GET against "ip:port"; returns the response body (bytes
/// after the first blank line). The soak scrapes its own MetricsServer the
/// way an operator's collector would — through the socket, not the
/// Registry — so the asserted SLO numbers are the exported ones.
std::string http_get_body(const std::string& addr) {
  const auto colon = addr.rfind(':');
  if (colon == std::string::npos) throw Error("bad metrics address " + addr);
  const std::string ip = addr.substr(0, colon);
  const int port = std::atoi(addr.c_str() + colon + 1);
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw Error("scrape: socket() failed");
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(static_cast<std::uint16_t>(port));
  if (inet_pton(AF_INET, ip.c_str(), &sa.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
    ::close(fd);
    throw Error("scrape: connect to " + addr + " failed");
  }
  const char req[] = "GET /metrics HTTP/1.0\r\n\r\n";
  if (::write(fd, req, sizeof(req) - 1) !=
      static_cast<ssize_t>(sizeof(req) - 1)) {
    ::close(fd);
    throw Error("scrape: short write");
  }
  std::string resp;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) {
    resp.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  const auto blank = resp.find("\r\n\r\n");
  if (blank == std::string::npos) throw Error("scrape: malformed response");
  return resp.substr(blank + 4);
}

/// Parses Prometheus text exposition back into name -> value ('#' comment
/// lines skipped; the exporter emits no labels).
std::map<std::string, double> parse_prometheus(const std::string& body) {
  std::map<std::string, double> out;
  std::size_t pos = 0;
  while (pos < body.size()) {
    std::size_t eol = body.find('\n', pos);
    if (eol == std::string::npos) eol = body.size();
    const std::string line = body.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty() || line[0] == '#') continue;
    const auto space = line.rfind(' ');
    if (space == std::string::npos) continue;
    out[line.substr(0, space)] = std::strtod(line.c_str() + space + 1, nullptr);
  }
  return out;
}

}  // namespace

OracleDigest oracle_digest(eval::Harness& harness, std::size_t n_updates,
                           const ChurnProfile* churn) {
  const auto world = harness.world_builder(n_updates, churn)();
  runtime::ShardedRuntime rt(harness.topology(), harness.options().engine);
  for (const auto& plan : world.plans) rt.install(plan);
  for (DeviceId d = 0; d < static_cast<DeviceId>(world.tables.size()); ++d) {
    rt.post_initialize(d, world.tables[d]);
  }
  rt.wait_quiescent();
  StepCursor cur;
  for (const auto& step : world.steps) {
    const fib::FibUpdate u = cur.resolve(step.update, step.erase_of);
    const auto handle = rt.post_rule_update(u.device, u);
    rt.wait_quiescent();
    cur.record(handle->rule_id);  // assigned by quiescence
  }
  OracleDigest out;
  out.violations = rt.violations().size();
  for (DeviceId d = 0; d < static_cast<DeviceId>(rt.device_count()); ++d) {
    auto rows = runtime::canonical_device_rows(rt.device(d));
    out.rows.insert(out.rows.end(), std::make_move_iterator(rows.begin()),
                    std::make_move_iterator(rows.end()));
  }
  std::sort(out.rows.begin(), out.rows.end());
  return out;
}

SoakReport run_soak(const SoakOptions& o) {
  if (!o.scenario.kills.empty() && o.kind == net::TransportKind::Inproc) {
    throw Error("soak kill schedule requires process isolation (uds|tcp)");
  }
  eval::Harness harness(o.spec, o.harness);
  const ChurnProfile& churn = o.scenario.churn;
  const TimedPlan plan = generate(harness.topology(), churn);
  const std::size_t n_updates = plan.steps.size();

  SoakReport rep;
  rep.events = n_updates;

  // Phase outcomes land here from the coordinator-side hook; the metrics
  // provider below reads the same state, so a mid-run scrape sees live
  // quantiles, not end-of-run ones.
  struct Live {
    std::mutex mu;
    Samples phase_s;
    double max_recovery_s = 0.0;
    std::uint32_t resets_seen = 0;
  };
  Live live;

  eval::DistOptions d;
  d.kind = o.kind;
  d.device_procs = o.device_procs;
  d.n_updates = n_updates;
  d.kills = o.scenario.kills;
  d.chaos = o.scenario.chaos;
  d.churn = churn;
  d.fanout = o.tree_fanout;
  if (o.pace) {
    d.hooks.phase_at_s.reserve(n_updates);
    for (const auto& s : plan.steps) d.hooks.phase_at_s.push_back(s.at_s);
  }
  d.hooks.on_phase = [&](std::size_t phase,
                         const runtime::DistCoordinator::PhaseOutcome& p) {
    std::lock_guard<std::mutex> lock(live.mu);
    if (phase > 0) live.phase_s.add(p.wall_seconds);  // 0 = burst
    if (p.resets > live.resets_seen) {
      // A phase that absorbed a catch-up: its wall time bounds the
      // recovery (replay included), our epoch-recovery SLO input.
      live.max_recovery_s = std::max(live.max_recovery_s, p.wall_seconds);
      live.resets_seen = p.resets;
    }
  };

  obs::MetricsServer server;
  // Process-health gauges (RSS, live BDD nodes) are exported for the whole
  // run — a live scrape sees them next to the soak quantiles — and sampled
  // here for the memory-growth oath below.
  const obs::Registry::ProviderHandle process_gauges =
      runtime::register_process_gauges();
  const std::uint64_t rss_before = runtime::process_rss_bytes();
  const std::uint64_t bdd_before = bdd::global_live_nodes();
  obs::Registry::ProviderHandle provider;
  if (!o.metrics_listen.empty()) {
    provider = obs::Registry::instance().add_provider(
        [&live](std::vector<obs::Sample>& out) {
          std::lock_guard<std::mutex> lock(live.mu);
          out.push_back({"soak_phases_done",
                         static_cast<double>(live.phase_s.size())});
          if (!live.phase_s.empty()) {
            out.push_back({"soak_phase_p50_s", live.phase_s.quantile(0.5)});
            out.push_back({"soak_phase_p99_s", live.phase_s.quantile(0.99)});
          }
          out.push_back({"soak_recovery_s_max", live.max_recovery_s});
        });
    server.start(o.metrics_listen);
  }

  const auto t0 = std::chrono::steady_clock::now();
  const auto res = eval::dist_run(o.spec, o.harness, d);
  rep.wall_s = seconds_since(t0);
  rep.violations = res.violations;
  rep.resets = res.resets;
  {
    std::lock_guard<std::mutex> lock(live.mu);
    if (!live.phase_s.empty()) {
      rep.p50_phase_s = live.phase_s.quantile(0.5);
      rep.p99_phase_s = live.phase_s.quantile(0.99);
    }
    rep.max_recovery_s = live.max_recovery_s;
  }

  // Oath 1: byte-identical convergence against the fault-free oracle.
  const auto oracle = oracle_digest(harness, n_updates, &churn);
  rep.converged =
      res.rows == oracle.rows && res.violations == oracle.violations;
  if (!rep.converged) {
    std::string diff;
    std::size_t shown = 0;
    const auto note = [&](const char* side, const std::string& row) {
      if (shown++ < 8) diff += std::string("\n    ") + side + " " + row;
    };
    std::vector<std::string> only_dist;
    std::set_difference(res.rows.begin(), res.rows.end(),
                        oracle.rows.begin(), oracle.rows.end(),
                        std::back_inserter(only_dist));
    std::vector<std::string> only_oracle;
    std::set_difference(oracle.rows.begin(), oracle.rows.end(),
                        res.rows.begin(), res.rows.end(),
                        std::back_inserter(only_oracle));
    for (const auto& r : only_dist) note("dist-only  ", r);
    for (const auto& r : only_oracle) note("oracle-only", r);
    if (shown > 8) diff += "\n    ... " + std::to_string(shown - 8) + " more";
    rep.failures.push_back(
        "digest diverged from fault-free oracle (rows " +
        std::to_string(res.rows.size()) + " vs " +
        std::to_string(oracle.rows.size()) + ", violations " +
        std::to_string(res.violations) + " vs " +
        std::to_string(oracle.violations) + ")" + diff);
  }

  // Oath 2: SLOs — from the live scrape when a server is up, so the
  // asserted numbers are the ones an operator's dashboard would show.
  double slo_p99 = rep.p99_phase_s;
  double slo_recovery = rep.max_recovery_s;
  if (!o.metrics_listen.empty()) {
    rep.scraped = parse_prometheus(http_get_body(server.address()));
    const auto pick = [&](const char* name, double dflt) {
      const auto it = rep.scraped.find(name);
      return it == rep.scraped.end() ? dflt : it->second;
    };
    slo_p99 = pick("soak_phase_p99_s", slo_p99);
    slo_recovery = pick("soak_recovery_s_max", slo_recovery);
    server.stop();
  }
  if (o.slo.p99_phase_s > 0.0 && slo_p99 > o.slo.p99_phase_s) {
    rep.slo_ok = false;
    rep.failures.push_back("SLO: p99 phase " + std::to_string(slo_p99) +
                           "s > " + std::to_string(o.slo.p99_phase_s) + "s");
  }
  if (o.slo.max_recovery_s > 0.0 && slo_recovery > o.slo.max_recovery_s) {
    rep.slo_ok = false;
    rep.failures.push_back("SLO: recovery " + std::to_string(slo_recovery) +
                           "s > " + std::to_string(o.slo.max_recovery_s) +
                           "s");
  }
  // Memory-growth oath: compare end-of-run gauges against the pre-run
  // samples. The oracle replay above allocates too, so sample *after* it —
  // growth it caused counts against us exactly like the run's own.
  if (o.slo.max_rss_growth_bytes > 0.0) {
    const double growth =
        static_cast<double>(runtime::process_rss_bytes()) -
        static_cast<double>(rss_before);
    if (growth > o.slo.max_rss_growth_bytes) {
      rep.slo_ok = false;
      rep.failures.push_back(
          "SLO: rss grew " + std::to_string(growth) + " bytes > " +
          std::to_string(o.slo.max_rss_growth_bytes) + " bytes");
    }
  }
  if (o.slo.max_bdd_live_growth > 0.0) {
    const double growth = static_cast<double>(bdd::global_live_nodes()) -
                          static_cast<double>(bdd_before);
    if (growth > o.slo.max_bdd_live_growth) {
      rep.slo_ok = false;
      rep.failures.push_back(
          "SLO: live BDD nodes grew " + std::to_string(growth) + " > " +
          std::to_string(o.slo.max_bdd_live_growth));
    }
  }
  return rep;
}

FuzzReport fuzz_schedules(const FuzzOptions& o) {
  FuzzReport rep;
  for (std::size_t i = 0; i < o.schedules; ++i) {
    ScenarioSpec sched = o.base;
    sched.kills.clear();  // inproc sweep: process kills are the soak's job
    // Distinct, reproducible per-run seeds: churn and chaos draw from
    // separate streams so a divergence pins to exactly one knob pair.
    sched.churn.seed = o.base_seed + 2 * i;
    sched.chaos.seed = o.base_seed + 2 * i + 1;

    SoakOptions run;
    run.spec = o.spec;
    run.harness = o.harness;
    run.kind = net::TransportKind::Inproc;
    run.device_procs = o.device_procs;
    run.scenario = sched;
    run.tree_fanout = o.tree_fanout;
    const auto r = run_soak(run);
    ++rep.ran;
    if (r.converged) continue;
    ++rep.divergent;
    std::string note = "schedule " + std::to_string(i) +
                       " (churn.seed=" + std::to_string(sched.churn.seed) +
                       ", chaos.seed=" + std::to_string(sched.chaos.seed) +
                       ") diverged";
    if (!o.dump_dir.empty()) {
      const std::string path =
          o.dump_dir + "/divergent-" + std::to_string(i) + ".scenario";
      std::ofstream f(path);
      f << format_scenario(sched);
      note += "; schedule dumped to " + path;
    }
    rep.failures.push_back(std::move(note));
  }
  return rep;
}

}  // namespace tulkun::scenario
