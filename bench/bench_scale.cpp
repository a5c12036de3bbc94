// bench_scale: coordination-fabric scaling curves — flat star vs
// aggregator tree over growing fat-trees.
//
// For each fat-tree size (k = 4, 8, 16, 32 -> 20, 80, 320, 1280 devices)
// the bench runs the distributed protocol twice over inproc transports
// with a collect round after every phase, both with delta digests (a full
// anchor only for a device's first round):
//
//   star: fanout 0 (every rank reports straight to the coordinator);
//   tree: fanout 2 (interior device ranks merge their subtree's rollups).
//
// The headline series is coordinator ingress: root_rollup_bytes, the wire
// bytes of verdict rollups arriving at rank 0. Under the tree the root
// sees one merged frame per round per direct child; under the star it
// sees one frame per rank per round. Both runs must produce
// byte-identical digest rows — the curves are only comparable because the
// answers agree.
//
//   ./bench_scale                       # all four sizes, quick profile
//   ./bench_scale --updates=8 --json=BENCH_SCALE.json
//   ./bench_scale --kmax=16             # cap the largest fat-tree
//
// A forked-UDS row (k=4, tree) closes the file: same protocol over real
// sockets and processes, sanity-checking that the inproc curves are not an
// artifact of loopback transports.
#include "common.hpp"

using namespace tulkun;

namespace {

struct ScaleArgs {
  std::size_t updates = 4;
  std::size_t procs = 6;
  std::size_t max_destinations = 2;
  std::uint64_t seed = 42;
  std::uint32_t kmax = 32;
  std::size_t fanout = 2;
  bool skip_uds = false;
  std::string json_path;
};

ScaleArgs parse(int argc, char** argv) {
  ScaleArgs a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](const char* prefix) -> const char* {
      return arg.rfind(prefix, 0) == 0 ? arg.c_str() + std::strlen(prefix)
                                       : nullptr;
    };
    if (const char* v = value("--updates=")) {
      a.updates = std::stoul(v);
    } else if (const char* v = value("--procs=")) {
      a.procs = std::stoul(v);
    } else if (const char* v = value("--max-dst=")) {
      a.max_destinations = std::stoul(v);
    } else if (const char* v = value("--seed=")) {
      a.seed = std::stoull(v);
    } else if (const char* v = value("--kmax=")) {
      a.kmax = static_cast<std::uint32_t>(std::stoul(v));
    } else if (const char* v = value("--fanout=")) {
      a.fanout = std::stoul(v);
    } else if (arg == "--skip-uds") {
      a.skip_uds = true;
    } else if (const char* v = value("--json=")) {
      a.json_path = v;
    } else if (arg == "--json" && i + 1 < argc) {
      a.json_path = argv[++i];
    } else if (arg == "--help") {
      std::cout << "bench_scale: star vs tree coordination scaling\n"
                   "  --updates=N --procs=N --max-dst=N --seed=N\n"
                   "  --kmax=K (largest fat-tree arity; 4|8|16|32)\n"
                   "  --fanout=N (tree fanout; default 2)\n"
                   "  --skip-uds (drop the forked-socket row)\n"
                   "  --json=PATH\n";
      std::exit(0);
    } else {
      std::cerr << "unknown flag " << arg << " (see --help)\n";
      std::exit(2);
    }
  }
  return a;
}

eval::DatasetSpec fat_tree_spec(std::uint32_t k, std::uint64_t seed) {
  eval::DatasetSpec spec;
  spec.name = "FTk" + std::to_string(k);
  spec.kind = "DC";
  spec.family = eval::Family::FatTree;
  spec.fattree_k = k;
  spec.seed = seed;
  return spec;
}

struct RunRow {
  double burst_s = 0.0;
  double update_p50_s = 0.0;
  std::uint64_t root_rollup_bytes = 0;
  std::uint64_t root_rollup_frames = 0;
  std::uint64_t violations = 0;
  std::vector<std::string> rows;
};

RunRow run_once(const eval::DatasetSpec& spec, const ScaleArgs& a,
                net::TransportKind kind, std::size_t fanout) {
  auto& reg = obs::Registry::instance();
  const std::uint64_t bytes0 = reg.counter("coord_root_rollup_bytes").value();
  const std::uint64_t frames0 =
      reg.counter("coord_root_rollup_frames").value();

  eval::HarnessOptions opts;
  opts.seed = a.seed;
  opts.max_destinations = a.max_destinations;
  eval::DistOptions dist;
  dist.kind = kind;
  dist.device_procs = a.procs;
  dist.n_updates = a.updates;
  dist.fanout = fanout;
  dist.collect_every_phase = true;
  const auto res = eval::dist_run(spec, opts, dist);

  RunRow row;
  row.burst_s = res.burst_wall_seconds;
  if (!res.incremental_wall_seconds.empty()) {
    row.update_p50_s = res.incremental_wall_seconds.quantile(0.5);
  }
  row.root_rollup_bytes =
      reg.counter("coord_root_rollup_bytes").value() - bytes0;
  row.root_rollup_frames =
      reg.counter("coord_root_rollup_frames").value() - frames0;
  row.violations = res.violations;
  row.rows = res.rows;
  return row;
}

void emit(bench::JsonReport& json, const std::string& prefix,
          const RunRow& r) {
  json.add(prefix + ".burst_s", r.burst_s);
  json.add(prefix + ".update_p50_s", r.update_p50_s);
  json.add(prefix + ".root_rollup_bytes", r.root_rollup_bytes);
  json.add(prefix + ".root_rollup_frames", r.root_rollup_frames);
  json.add(prefix + ".violations", r.violations);
}

}  // namespace

int main(int argc, char** argv) {
  if (eval::maybe_run_device_role(argc, argv)) return 0;
  const auto a = parse(argc, argv);
  bench::JsonReport json;
  json.add("scale.updates", static_cast<std::uint64_t>(a.updates));
  json.add("scale.device_procs", static_cast<std::uint64_t>(a.procs));
  json.add("scale.tree_fanout", static_cast<std::uint64_t>(a.fanout));

  std::printf("%-8s %9s %6s %16s %14s %10s %8s\n", "dataset", "devices",
              "mode", "root_bytes", "root_frames", "burst", "p50");
  bool all_match = true;
  for (const std::uint32_t k : {4u, 8u, 16u, 32u}) {
    if (k > a.kmax) continue;
    const auto spec = fat_tree_spec(k, a.seed);
    const std::uint32_t devices = 5 * k * k / 4;
    const std::string tag = "ft" + std::to_string(k);

    const auto star =
        run_once(spec, a, net::TransportKind::Inproc, /*fanout=*/0);
    const auto tree = run_once(spec, a, net::TransportKind::Inproc, a.fanout);
    const bool match = star.rows == tree.rows &&
                       star.violations == tree.violations;
    all_match = all_match && match;

    const auto print = [&](const char* mode, const RunRow& r) {
      std::printf("%-8s %9u %6s %16llu %14llu %9.3fs %7.3fs\n", spec.name.c_str(),
                  devices, mode,
                  static_cast<unsigned long long>(r.root_rollup_bytes),
                  static_cast<unsigned long long>(r.root_rollup_frames),
                  r.burst_s, r.update_p50_s);
    };
    print("star", star);
    print("tree", tree);
    if (!match) std::printf("%-8s DIGEST MISMATCH star vs tree\n", tag.c_str());

    json.add(tag + ".devices", static_cast<std::uint64_t>(devices));
    emit(json, tag + ".star", star);
    emit(json, tag + ".tree", tree);
    json.add(tag + ".digest_match", static_cast<std::uint64_t>(match ? 1 : 0));
    json.add(tag + ".digest_rows",
             static_cast<std::uint64_t>(star.rows.size()));
    if (star.root_rollup_bytes > 0) {
      json.add(tag + ".tree_vs_star_bytes_ratio",
               static_cast<double>(tree.root_rollup_bytes) /
                   static_cast<double>(star.root_rollup_bytes));
    }
  }

  if (!a.skip_uds) {
    // Ground the loopback curves: same tree protocol, real forked
    // processes over Unix sockets.
    const auto spec = fat_tree_spec(4, a.seed);
    const auto uds = run_once(spec, a, net::TransportKind::Unix, a.fanout);
    std::printf("%-8s %9u %6s %16llu %14llu %9.3fs %7.3fs\n", "FTk4/uds", 20u,
                "tree",
                static_cast<unsigned long long>(uds.root_rollup_bytes),
                static_cast<unsigned long long>(uds.root_rollup_frames),
                uds.burst_s, uds.update_p50_s);
    emit(json, "ft4_uds.tree", uds);
  }

  json.add("scale.digests_match", static_cast<std::uint64_t>(all_match));
  json.write(a.json_path);
  return all_match ? 0 : 1;
}
