// soak: drive the multi-process DistributedRuntime under continuous churn
// and transport chaos for minutes, then assert convergence (byte-identical
// digest against the fault-free oracle) and SLOs (p99 update latency,
// epoch-recovery time) — scraped from the live metrics endpoint when one
// is configured. Also the schedule fuzzer's front door (--sweep).
//
// Typical runs:
//   # 30s-ish smoke soak, 2 inproc ranks, default churn, light chaos:
//   ./soak --events=40 --chaos='chaos.loss=0.05;chaos.dup=0.05'
//
//   # The acceptance soak: 3 UDS device processes, >= 2 min paced churn
//   # with loss/dup/reorder/gray/kill, live-scraped SLOs:
//   ./soak --transport=uds --procs=3 --events=400 --rate-hz=3 --pace
//       --chaos='chaos.loss=0.05;chaos.dup=0.05;chaos.reorder=0.1;chaos.gray_rank=2;chaos.gray_delay_s=0.05'
//       --kill=1@3 --metrics-listen=127.0.0.1:0
//       --slo-p99-s=30 --slo-recovery-s=120
//   (one command; wrapped here for width)
//
//   # Fuzz 50 seeded chaos x churn schedules (inproc), dump divergences:
//   ./soak --sweep=50 --events=12 --dump-dir=/tmp/soak-divergent
//
// --scenario-dump writes the full schedule (churn + chaos + kills) before
// running; --scenario-replay loads one, so any fuzzer-found divergence
// reproduces exactly from its dump.
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "scenario/soak.hpp"
#include "xform/rewrite.hpp"

using namespace tulkun;

namespace {

struct CliArgs {
  std::string dataset = "INet2";
  std::uint64_t seed = 42;
  std::size_t max_destinations = 4;
  net::TransportKind kind = net::TransportKind::Inproc;
  std::size_t procs = 2;
  scenario::ScenarioSpec scenario;
  bool pace = false;
  std::string metrics_listen;
  scenario::SloThresholds slo;
  std::size_t sweep = 0;  // 0 = single soak, else fuzz N schedules
  std::string dump_dir;
  std::string scenario_dump;
  std::string scenario_replay;
  std::size_t tree_fanout = 0;
};

CliArgs parse(int argc, char** argv) {
  CliArgs a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](const char* prefix) -> const char* {
      return arg.rfind(prefix, 0) == 0 ? arg.c_str() + std::strlen(prefix)
                                       : nullptr;
    };
    if (const char* v = value("--dataset=")) {
      a.dataset = v;
    } else if (const char* v = value("--seed=")) {
      a.seed = std::stoull(v);
      a.scenario.churn.seed = a.seed;
      a.scenario.chaos.seed = a.seed + 1;
    } else if (const char* v = value("--max-dst=")) {
      a.max_destinations = std::stoul(v);
    } else if (const char* v = value("--transport=")) {
      a.kind = net::parse_transport_kind(v);
    } else if (const char* v = value("--procs=")) {
      a.procs = std::stoul(v);
    } else if (const char* v = value("--events=")) {
      a.scenario.churn.events = std::stoull(v);
    } else if (const char* v = value("--rate-hz=")) {
      a.scenario.churn.rate_hz = std::stod(v);
    } else if (const char* v = value("--churn=")) {
      a.scenario.churn = scenario::parse_churn_arg(v);
    } else if (const char* v = value("--xform=")) {
      // Subsystem kill switch (0 disables rewrites + the multi-field box
      // index; default on). Forked device ranks inherit it via argv.
      xform::set_xform_enabled(std::strcmp(v, "0") != 0);
    } else if (const char* v = value("--xform-profile=")) {
      a.scenario.churn.xform_profile =
          static_cast<std::uint32_t>(std::stoul(v));
    } else if (const char* v = value("--xform-fraction=")) {
      a.scenario.churn.xform_fraction = std::stod(v);
    } else if (const char* v = value("--acl-fraction=")) {
      a.scenario.churn.acl_fraction = std::stod(v);
    } else if (const char* v = value("--chaos=")) {
      a.scenario.chaos = scenario::parse_chaos_arg(v);
    } else if (const char* v = value("--kill=")) {
      // RANK@PHASE[+FRAMES], repeatable.
      const std::string kv = v;
      const auto at = kv.find('@');
      if (at == std::string::npos) {
        throw Error("--kill wants RANK@PHASE[+FRAMES]");
      }
      scenario::KillSpec k;
      k.rank = static_cast<net::PeerId>(std::stoul(kv.substr(0, at)));
      scenario::parse_kill_when(kv.substr(at + 1), k);
      a.scenario.kills.push_back(k);
    } else if (const char* v = value("--tree-fanout=")) {
      a.tree_fanout = std::stoul(v);
    } else if (arg == "--pace") {
      a.pace = true;
    } else if (const char* v = value("--metrics-listen=")) {
      a.metrics_listen = v;
    } else if (const char* v = value("--slo-p99-s=")) {
      a.slo.p99_phase_s = std::stod(v);
    } else if (const char* v = value("--slo-recovery-s=")) {
      a.slo.max_recovery_s = std::stod(v);
    } else if (const char* v = value("--slo-rss-growth=")) {
      a.slo.max_rss_growth_bytes = std::stod(v);
    } else if (const char* v = value("--slo-bdd-growth=")) {
      a.slo.max_bdd_live_growth = std::stod(v);
    } else if (const char* v = value("--sweep=")) {
      a.sweep = std::stoull(v);
    } else if (const char* v = value("--dump-dir=")) {
      a.dump_dir = v;
    } else if (const char* v = value("--scenario-dump=")) {
      a.scenario_dump = v;
    } else if (const char* v = value("--scenario-replay=")) {
      a.scenario_replay = v;
    } else if (arg == "--help") {
      std::cout
          << "soak: churn x chaos soak + schedule fuzzer\n"
             "  --dataset=NAME --seed=N --max-dst=N\n"
             "  --transport=inproc|uds|tcp --procs=N\n"
             "  --events=N --rate-hz=R --pace\n"
             "  --churn=SPEC --chaos=SPEC   (';'-separated k=v pairs;\n"
             "                               linkdown=A-B@T0..T1 flaps a link)\n"
             "  --kill=RANK@PHASE[+FRAMES]  (repeatable; uds|tcp only; +N dies\n"
             "                               after the Nth data frame of PHASE)\n"
             "  --xform=0|1                 (packet-transform kill switch)\n"
             "  --xform-profile=0..3        (0 none, 1 NAT edge, 2 tunnel\n"
             "                               core, 3 ECMP spray)\n"
             "  --xform-fraction=F --acl-fraction=F\n"
             "  --tree-fanout=N             (0 = flat star coordination)\n"
             "  --metrics-listen=IP:PORT    (SLOs asserted from the scrape)\n"
             "  --slo-p99-s=X --slo-recovery-s=X\n"
             "  --slo-rss-growth=BYTES --slo-bdd-growth=NODES\n"
             "  --scenario-dump=FILE --scenario-replay=FILE\n"
             "  --sweep=N --dump-dir=DIR    (fuzz N seeded schedules)\n";
      std::exit(0);
    } else {
      throw Error("unknown flag " + arg + " (see --help)");
    }
  }
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    // Re-exec entry for forked device processes (uds|tcp runs).
    if (eval::maybe_run_device_role(argc, argv)) return 0;
    auto args = parse(argc, argv);

    if (!args.scenario_replay.empty()) {
      std::ifstream f(args.scenario_replay);
      if (!f) throw Error("cannot read " + args.scenario_replay);
      std::ostringstream text;
      text << f.rdbuf();
      args.scenario = scenario::parse_scenario(text.str());
    }
    if (!args.scenario_dump.empty()) {
      std::ofstream f(args.scenario_dump);
      if (!f) throw Error("cannot write " + args.scenario_dump);
      f << scenario::format_scenario(args.scenario);
      std::cout << "wrote schedule " << args.scenario_dump << "\n";
    }

    eval::HarnessOptions opts;
    opts.seed = args.seed;
    opts.max_destinations = args.max_destinations;

    if (args.sweep > 0) {
      scenario::FuzzOptions fz;
      fz.spec = eval::dataset(args.dataset);
      fz.harness = opts;
      fz.device_procs = args.procs;
      fz.base = args.scenario;
      fz.base_seed = args.seed;
      fz.schedules = args.sweep;
      fz.dump_dir = args.dump_dir;
      fz.tree_fanout = args.tree_fanout;
      const auto rep = scenario::fuzz_schedules(fz);
      std::cout << "fuzz: " << rep.ran << " schedules, " << rep.divergent
                << " divergent\n";
      for (const auto& f : rep.failures) std::cout << "  " << f << "\n";
      return rep.ok() ? 0 : 1;
    }

    scenario::SoakOptions so;
    so.spec = eval::dataset(args.dataset);
    so.harness = opts;
    so.kind = args.kind;
    so.device_procs = args.procs;
    so.scenario = args.scenario;
    so.pace = args.pace;
    so.metrics_listen = args.metrics_listen;
    so.slo = args.slo;
    so.tree_fanout = args.tree_fanout;
    const auto rep = scenario::run_soak(so);
    std::cout << "soak: " << rep.events << " events over "
              << format_duration(rep.wall_s) << ", resets survived "
              << rep.resets << ", violations " << rep.violations << "\n"
              << "phase p50 " << format_duration(rep.p50_phase_s) << ", p99 "
              << format_duration(rep.p99_phase_s) << ", worst recovery "
              << format_duration(rep.max_recovery_s) << "\n"
              << "converged: " << (rep.converged ? "yes" : "NO")
              << ", slo: " << (rep.slo_ok ? "ok" : "VIOLATED") << "\n";
    for (const auto& f : rep.failures) std::cout << "  " << f << "\n";
    return rep.ok() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
