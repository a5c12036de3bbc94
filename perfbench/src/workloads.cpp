#include "workloads.hpp"

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>

#include "bdd/manager.hpp"
#include "bdd/serialize.hpp"
#include "core/rng.hpp"
#include "dvm/codec.hpp"
#include "eval/dist_run.hpp"
#include "eval/harness.hpp"
#include "fib/prefix_index.hpp"
#include "net/socket_transport.hpp"
#include "obs/registry.hpp"
#include "planner/plan_service.hpp"
#include "pred/atom_set.hpp"
#include "runtime/digest.hpp"
#include "runtime/distributed.hpp"
#include "runtime/sharded_runtime.hpp"
#include "scenario/workload.hpp"
#include "spec/builtins.hpp"
#include "topo/generators.hpp"

namespace perfbench {
namespace {

using namespace tulkun;

// --- sizes -----------------------------------------------------------------
//
// A timed run repeats fresh set-up + burst + a fixed-length stream at
// least kMinReps times and keeps going until --seconds have passed; every
// end-to-end figure is the median over repetitions. A repetition's stream
// has at least 1000 operations, so its p99 has ten samples beyond it. The
// median over repetitions keeps a burst of host interference during one
// repetition out of the figure, and a faster program does more
// repetitions of the same work, not a longer stream over a larger table.
constexpr std::size_t kMinReps = 3;
constexpr std::size_t kDistProcs = 3;
constexpr std::size_t kReplayShards = 3;
constexpr std::size_t kDistOpsPerRep = 1000;
constexpr std::size_t kDistTraceOps = 150;  // keeps device rings drop-free
constexpr std::size_t kIntents = 2000;
constexpr std::size_t kPlanWorkers = 4;  // including the committing thread
constexpr std::size_t kIntentOpsPerRep = 1200;  // 15 flap blocks
// Traced runs alternate blocks of traced and untraced operations, so the
// tracing overhead is measured on interleaved samples, and drain the
// flight recorder after every traced block so no ring wraps.
constexpr std::size_t kTraceBlock = 8;

struct SpanIds {
  std::uint32_t post = obs::intern("bench.runtime.post");
  std::uint32_t quiesce = obs::intern("bench.runtime.quiesce");
  std::uint32_t commit = obs::intern("bench.planner.commit");
  std::uint32_t edit = obs::intern("bench.planner.edit");
  std::uint32_t encode = obs::intern("bench.codec.encode");
  std::uint32_t decode = obs::intern("bench.codec.decode");
};
const SpanIds& span_ids() {
  static const SpanIds ids;
  return ids;
}

/// Flight-recorder scope of a traced run. Inert in timed runs, which must
/// measure with the recorder off.
class Recorder {
 public:
  explicit Recorder(bool on) : on_(on) {}
  ~Recorder() { obs::set_trace_enabled(false); }
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  void enable(bool v) const {
    if (on_) obs::set_trace_enabled(v);
  }
  void drain() {
    if (on_) flatten(obs::drain_snapshot(), trace);
  }
  FlatTrace trace;

 private:
  bool on_;
};

std::string fmt(double v) {
  std::ostringstream os;
  os.precision(6);
  os << v;
  return os.str();
}

std::uint64_t registry_counter(const char* name) {
  return obs::Registry::instance().counter(name).value();
}

/// Canonical digest of one side of a differential check: a 64-bit FNV-1a
/// hash of each canonical row, sorted, so a run can keep every
/// repetition's digest until the checks without holding its rows. Equal
/// hashes are equal rows up to a 64-bit collision.
struct Digest {
  std::vector<std::uint64_t> rows;
  std::uint64_t violations = 0;
};

std::uint64_t row_hash(const std::string& row) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : row) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
  }
  return h;
}

Digest make_digest(const std::vector<std::string>& rows,
                   std::uint64_t violations) {
  Digest d;
  d.violations = violations;
  d.rows.reserve(rows.size());
  for (const auto& row : rows) d.rows.push_back(row_hash(row));
  std::sort(d.rows.begin(), d.rows.end());
  return d;
}

/// The oracle side of a differential check, kept as text so that a
/// mismatch can name rows the runtime lacks.
struct OracleRows {
  std::vector<std::string> rows;
  std::uint64_t violations = 0;
};

/// Checks `got` against its oracle and records the verdict: the canonical
/// rows and the violation count must be equal, as in the repository's
/// differential tests.
void check(Result& r, const std::string& what, const Digest& got,
           const OracleRows& want_rows) {
  const Digest want = make_digest(want_rows.rows, want_rows.violations);
  if (got.rows == want.rows && got.violations == want.violations) {
    r.oracle(what, true, "");
    return;
  }
  std::vector<std::uint64_t> only;
  std::set_symmetric_difference(got.rows.begin(), got.rows.end(),
                                want.rows.begin(), want.rows.end(),
                                std::back_inserter(only));
  std::string detail = "rows " + std::to_string(got.rows.size()) + " vs " +
                       std::to_string(want.rows.size()) + ", " +
                       std::to_string(only.size()) +
                       " differing, violations " +
                       std::to_string(got.violations) + " vs " +
                       std::to_string(want.violations);
  std::size_t shown = 0;
  for (const auto& row : want_rows.rows) {
    if (shown == 2) break;
    if (!std::binary_search(got.rows.begin(), got.rows.end(), row_hash(row))) {
      detail += "; oracle-only " + row.substr(0, 96);
      ++shown;
    }
  }
  r.oracle(what, false, detail);
}

/// Measured shares of the first `n_ops` operations of a churn stream.
void note_stream_shares(Result& r, const topo::Topology& topo,
                        const scenario::ChurnProfile& churn,
                        std::size_t n_ops) {
  const auto plan = scenario::generate(topo, churn);
  std::size_t drops = 0, erases = 0, batched = 0;
  const std::size_t n = std::min(n_ops, plan.steps.size());
  for (std::size_t i = 0; i < n; ++i) {
    const auto& s = plan.steps[i];
    if (s.update.kind == fib::FibUpdate::Kind::Insert) {
      drops += s.update.rule.action.type == fib::ActionType::Drop ? 1 : 0;
      continue;
    }
    ++erases;
    // Batched withdrawals land at one instant.
    const bool prev = i > 0 && plan.steps[i - 1].erase_of >= 0 &&
                      plan.steps[i - 1].at_s == s.at_s;
    const bool next = i + 1 < plan.steps.size() &&
                      plan.steps[i + 1].erase_of >= 0 &&
                      plan.steps[i + 1].at_s == s.at_s;
    batched += prev || next ? 1 : 0;
  }
  const double d = n == 0 ? 1.0 : static_cast<double>(n);
  r.set("input.drop_insert_share", static_cast<double>(drops) / d, "ratio");
  r.set("input.erase_share", static_cast<double>(erases) / d, "ratio");
  r.set("input.batched_withdrawal_share", static_cast<double>(batched) / d,
        "ratio");
}

/// Per-repetition stream figures; the reported value is their median.
struct StreamReps {
  std::vector<double> p50, p99, rate;
  std::size_t samples = 0;

  void add(const std::vector<double>& lat, double wall_s) {
    p50.push_back(quantile(lat, 0.5));
    p99.push_back(quantile(lat, 0.99));
    rate.push_back(wall_s > 0 ? static_cast<double>(lat.size()) / wall_s
                              : 0.0);
    samples += lat.size();
  }
};

void set_update_metrics(Result& r, const StreamReps& s) {
  r.set("update_p50_s", median(s.p50), "s");
  r.set("update_p99_s", median(s.p99), "s");
  r.set("updates_per_s", median(s.rate), "1/s");
  r.note("update samples: " + std::to_string(s.samples) + " in " +
         std::to_string(s.p50.size()) + " repetitions");
}

void set_setup_metrics(Result& r, const std::vector<double>& setup,
                       const std::vector<double>& burst) {
  r.set("setup_s", median(setup), "s");
  r.set("burst_s", median(burst), "s");
  r.note("set-up samples: " + std::to_string(setup.size()) +
         ", burst samples: " + std::to_string(burst.size()));
}

/// Per-layer metrics every traced run reports, with their units; zero
/// where the workload does not use the layer. Workloads overwrite what
/// they measure.
void zero_layers(Result& r) {
  static const std::pair<const char*, const char*> kLayerMetrics[] = {
      {"planner.commit_s", "s"},
      {"planner.plan_s", "s"},
      {"planner.serial_frac", "ratio"},
      {"planner.replanned_per_commit", "count/op"},
      {"planner.dfa_hit_rate", "ratio"},
      {"runtime.post_s", "s"},
      {"runtime.quiesce_s", "s"},
      {"runtime.queue_wait_p50_s", "s"},
      {"runtime.queue_wait_p99_s", "s"},
      {"runtime.shard_busy_frac", "ratio"},
      {"runtime.mean_batch", "count"},
      {"runtime.frames_per_update", "count/op"},
      {"dvm.lec_delta_s", "s"},
      {"dvm.recompute_s", "s"},
      {"dvm.emit_s", "s"},
      {"dvm.envelopes_per_update", "count/op"},
      {"msg_bytes_per_update", "B"},
      {"fib.full_scans", "count/op"},
      {"fib.box_queries", "count/op"},
      {"pred.atom_hit_rate", "ratio"},
      {"pred.demotions", "count/op"},
      {"bdd.live_nodes", "count"},
      {"bdd.gc_runs", "count"},
      {"codec.encode_s_per_frame", "s"},
      {"codec.decode_s_per_frame", "s"},
      {"codec.bytes_per_envelope", "B"},
      {"net.frames_per_update", "count/op"},
      {"net.bytes_per_update", "B"},
      {"net.rtt_p50_s", "s"},
      {"net.send_queue_peak", "count"},
      {"net.reconnects", "count"},
      {"net.protocol_errors", "count"},
      {"coord.phase_s", "s"},
      {"coord.device_busy_s", "s"},
      {"coord.wait_s", "s"},
      {"coord.probe_waves_per_update", "count/op"},
      {"coord.collect_s", "s"},
      {"coord.root_rollup_bytes", "B"},
      {"obs.trace_overhead_frac", "ratio"},
      {"obs.ring_drops", "count"},
  };
  for (const auto& [name, unit] : kLayerMetrics) r.set(name, 0.0, unit);
  for (std::size_t k = 0; k < fib::kNumIndexKinds; ++k) {
    r.set(std::string("fib.index.") +
              fib::index_kind_name(static_cast<fib::IndexKind>(k)) +
              ".skip_rate",
          0.0, "ratio");
  }
  for (const char* layer : kLayers) {
    r.set(std::string("self_frac.") + layer, 0.0, "ratio");
  }
  r.set("unattributed_frac", 0.0, "ratio");
}

void set_attribution(Result& r, const Attribution& a) {
  const double total = a.total_s > 0 ? a.total_s : 1.0;
  for (const auto& [layer, s] : a.self_s) {
    r.set("self_frac." + layer, s / total, "ratio");
  }
  r.set("unattributed_frac", a.unattributed_s / total, "ratio");
  std::string line = "traced update wall split:";
  for (const auto& [layer, s] : a.self_s) {
    line += " " + layer + " " + fmt(100.0 * s / total) + "%";
  }
  line += ", unattributed " + fmt(100.0 * a.unattributed_s / total) + "%";
  r.note(line);
}

void set_trace_overhead(Result& r, const std::vector<double>& traced,
                        const std::vector<double>& untraced) {
  const double base = median(untraced);
  r.set("obs.trace_overhead_frac",
        base > 0 ? median(traced) / base - 1.0 : 0.0, "ratio");
}

void set_planner_spans(Result& r, const FlatTrace& trace,
                       const std::string& commit_name) {
  const auto p = planner_spans(trace, commit_name);
  r.set("planner.commit_s", p.commit_s, "s");
  r.set("planner.plan_s", p.plan_s, "s");
  r.set("planner.serial_frac", p.serial_frac, "ratio");
}

void set_dfa_hit_rate(Result& r, std::uint64_t hits0, std::uint64_t misses0) {
  const double hits =
      static_cast<double>(registry_counter("planner_dfa_cache_hits") - hits0);
  const double misses = static_cast<double>(
      registry_counter("planner_dfa_cache_misses") - misses0);
  r.set("planner.dfa_hit_rate",
        hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
}

/// Predicate-tier and index counters over a window opened by reset().
struct CounterWindow {
  void reset() {
    fib::index_counters_reset();
    pred::atom_counters_reset();
    gc0 = bdd::gc_totals().runs;
  }
  void report(Result& r, std::size_t ops) const {
    const auto idx = fib::index_counters_snapshot();
    std::uint64_t full_scans = 0, box_queries = 0;
    for (std::size_t k = 0; k < fib::kNumIndexKinds; ++k) {
      r.set(std::string("fib.index.") +
                fib::index_kind_name(static_cast<fib::IndexKind>(k)) +
                ".skip_rate",
            idx[k].skip_rate(), "ratio");
      full_scans += idx[k].full_scans;
      box_queries += idx[k].box_queries;
    }
    const double n = ops == 0 ? 1.0 : static_cast<double>(ops);
    r.set("fib.full_scans", static_cast<double>(full_scans) / n, "count/op");
    r.set("fib.box_queries", static_cast<double>(box_queries) / n,
          "count/op");
    const auto a = pred::atom_counters_snapshot();
    const double tier = static_cast<double>(a.atom_hits + a.bdd_fallbacks);
    r.set("pred.atom_hit_rate",
          tier > 0 ? static_cast<double>(a.atom_hits) / tier : 0.0, "ratio");
    r.set("pred.demotions", static_cast<double>(a.demotions) / n, "count/op");
    r.set("bdd.live_nodes", static_cast<double>(bdd::global_live_nodes()),
          "count");
    r.set("bdd.gc_runs", static_cast<double>(bdd::gc_totals().runs - gc0),
          "count");
  }
  std::uint64_t gc0 = 0;
};

// --- codec replay ----------------------------------------------------------

/// Single-threaded replay of a world through the public calls of
/// verifier::OnDeviceVerifier, one private PacketSpace per device as in the
/// runtimes, with every emitted batch passed through dvm::encode_frame and
/// dvm::decode_frame. Frames are grouped per (handler, destination), as
/// ShardedRuntime groups them. Only the stream's frames are counted.
struct CodecStats {
  double encode_s = 0.0;
  double decode_s = 0.0;
  std::uint64_t frames = 0;
  std::uint64_t envelopes = 0;
  std::uint64_t bytes = 0;
  std::size_t updates = 0;
};

class CodecReplay {
 public:
  CodecReplay(const topo::Topology& topo, const runtime::DistWorld& world,
              const dvm::EngineConfig& engine)
      : world_(&world) {
    devices_.reserve(topo.device_count());
    for (DeviceId d = 0; d < topo.device_count(); ++d) {
      Device dev;
      dev.space = std::make_unique<packet::PacketSpace>();
      dev.verifier = std::make_unique<verifier::OnDeviceVerifier>(
          d, topo, *dev.space, engine);
      dev.channels =
          std::make_unique<dvm::ChannelDecoders>(dev.space->manager());
      for (const auto& plan : world.plans) {
        planner::InvariantPlan local = plan;
        local.inv = runtime::localize_invariant(plan.inv, *dev.space);
        dev.verifier->install(local);
      }
      devices_.push_back(std::move(dev));
    }
  }

  void burst() {
    for (DeviceId d = 0; d < devices_.size(); ++d) {
      route(devices_[d].verifier->initialize(
          runtime::localize_fib(world_->tables[d], *devices_[d].space)));
      pump();
    }
  }

  /// Replays the first `n` steps, counting their frames.
  CodecStats stream(std::size_t n, Recorder& rec) {
    stats_ = {};
    counting_ = true;
    scenario::StepCursor cur;
    for (std::size_t i = 0; i < n && i < world_->steps.size(); ++i) {
      if (i % kTraceBlock == 0) {
        rec.enable(false);
        rec.drain();
        rec.enable((i / kTraceBlock) % 2 == 1);
      }
      const auto& step = world_->steps[i];
      fib::FibUpdate u = cur.resolve(step.update, step.erase_of);
      Device& dev = devices_[u.device];
      if (u.kind == fib::FibUpdate::Kind::Insert) {
        u.rule = runtime::localize_rule(step.update.rule, *dev.space);
      }
      route(dev.verifier->apply_rule_update(u));
      cur.record(u.rule_id);
      pump();
      ++stats_.updates;
    }
    rec.enable(false);
    rec.drain();
    counting_ = false;
    return stats_;
  }

 private:
  struct Device {
    std::unique_ptr<packet::PacketSpace> space;
    std::unique_ptr<verifier::OnDeviceVerifier> verifier;
    std::unique_ptr<dvm::ChannelDecoders> channels;
  };
  struct Frame {
    DeviceId dst = kNoDevice;
    std::vector<std::uint8_t> bytes;
  };

  void route(std::vector<dvm::Envelope> out) {
    std::map<DeviceId, std::vector<dvm::Envelope>> by_dst;
    for (auto& env : out) by_dst[env.dst].push_back(std::move(env));
    for (auto& [dst, envs] : by_dst) {
      Frame f;
      f.dst = dst;
      const auto t0 = Clock::now();
      {
        obs::ScopedSpan span(span_ids().encode, envs.size());
        f.bytes = dvm::encode_frame(envs, &cache_, &encoders_);
      }
      if (counting_) {
        stats_.encode_s += seconds_since(t0);
        stats_.frames += 1;
        stats_.envelopes += envs.size();
        stats_.bytes += f.bytes.size();
      }
      queue_.push_back(std::move(f));
    }
  }

  void pump() {
    while (!queue_.empty()) {
      Frame f = std::move(queue_.front());
      queue_.pop_front();
      Device& dev = devices_[f.dst];
      const auto t0 = Clock::now();
      std::vector<dvm::Envelope> envs;
      {
        obs::ScopedSpan span(span_ids().decode, f.bytes.size());
        envs = dvm::decode_frame(f.bytes, *dev.space,
                                 dvm::default_decode_limits(),
                                 dev.channels.get());
      }
      if (counting_) stats_.decode_s += seconds_since(t0);
      std::vector<dvm::Envelope> out;
      for (const auto& env : envs) {
        auto msgs = dev.verifier->on_message(env);
        out.insert(out.end(), std::make_move_iterator(msgs.begin()),
                   std::make_move_iterator(msgs.end()));
      }
      route(std::move(out));
    }
  }

  const runtime::DistWorld* world_;
  std::vector<Device> devices_;
  std::deque<Frame> queue_;
  bdd::SerializeCache cache_;
  dvm::ChannelEncoders encoders_;
  CodecStats stats_;
  bool counting_ = false;
};

void set_codec(Result& r, const CodecStats& c) {
  const double frames = c.frames == 0 ? 1.0 : static_cast<double>(c.frames);
  r.set("codec.encode_s_per_frame", c.encode_s / frames, "s");
  r.set("codec.decode_s_per_frame", c.decode_s / frames, "s");
  r.set("codec.bytes_per_envelope",
        c.envelopes == 0 ? 0.0
                         : static_cast<double>(c.bytes) /
                               static_cast<double>(c.envelopes),
        "B");
  r.note("codec replay: " + std::to_string(c.updates) + " updates, " +
         std::to_string(c.frames) + " frames, " +
         std::to_string(c.envelopes) + " envelopes, " +
         std::to_string(c.bytes) + " B");
}

// --- dist-uds ----------------------------------------------------------------

/// The BGP-shaped churn stream of repetition `rep` (no Drop-class inserts).
scenario::ChurnProfile churn_profile(std::uint64_t seed, std::size_t rep,
                                     std::size_t events) {
  scenario::ChurnProfile p;
  p.seed = mix_seed(seed, rep);
  p.events = events;
  return p;
}

OracleRows sharded_rows(runtime::ShardedRuntime& rt) {
  OracleRows out;
  out.violations = rt.violations().size();
  for (DeviceId d = 0; d < rt.device_count(); ++d) {
    auto rows = runtime::canonical_device_rows(rt.device(d));
    out.rows.insert(out.rows.end(), std::make_move_iterator(rows.begin()),
                    std::make_move_iterator(rows.end()));
  }
  return out;
}

eval::HarnessOptions dist_opts() { return eval::HarnessOptions{}; }

/// A socket directory inside the working directory (the benchmark writes
/// nowhere else); relative so Unix socket paths stay short.
class SocketDir {
 public:
  SocketDir() : path_("perfbench-sock-" + std::to_string(getpid())) {
    // A directory left by a killed run with a recycled pid is reused.
    if (mkdir(path_.c_str(), 0700) != 0 && errno != EEXIST) {
      throw Error("cannot create socket directory " + path_);
    }
  }
  ~SocketDir() { rmdir(path_.c_str()); }
  SocketDir(const SocketDir&) = delete;
  SocketDir& operator=(const SocketDir&) = delete;
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

struct DistRep {
  eval::DistRunResult res;
  double setup_s = 0.0;
  double stream_wall_s = 0.0;
  double collect_s = 0.0;
};

DistRep dist_rep(const scenario::ChurnProfile& churn, std::size_t n,
                 bool traced, const SocketDir& dir) {
  eval::DistOptions d;
  d.kind = net::TransportKind::Unix;
  d.device_procs = kDistProcs;
  d.n_updates = n;
  d.churn = churn;
  d.socket_dir = dir.path();
  d.collect_trace = traced;
  Clock::time_point burst_done{}, last_phase{};
  d.hooks.on_phase = [&](std::size_t phase,
                         const runtime::DistCoordinator::PhaseOutcome&) {
    const auto now = Clock::now();
    if (phase == 0) burst_done = now;
    last_phase = now;
  };
  // Set-up runs from the call to the start of the burst phase: fork, exec
  // and connect. Device processes build their world after saying hello,
  // so planning and FIB synthesis overlap phase 0 and count in the burst.
  DistRep rep;
  const auto t0 = Clock::now();
  rep.res = eval::dist_run(eval::dataset("INet2"), dist_opts(), d);
  const auto t_end = Clock::now();
  obs::set_trace_enabled(false);
  rep.setup_s = seconds_between(t0, burst_done) - rep.res.burst_wall_seconds;
  rep.stream_wall_s = seconds_between(burst_done, last_phase);
  rep.collect_s = seconds_between(last_phase, t_end);
  if (rep.res.resets != 0) {
    throw Error("dist run absorbed an unexpected device-process reset");
  }
  return rep;
}

/// The dist-uds oracle: the world every device process builds, replayed
/// through an in-process ShardedRuntime one update at a time, and
/// digested. A traced run also measures the runtime, index and predicate
/// layers on this replay (`rec` and `layers` set): the device processes'
/// own counters stay in their address spaces.
OracleRows sharded_replay(const scenario::ChurnProfile& churn, std::size_t n,
                          Recorder* rec, Result* layers) {
  eval::Harness h(eval::dataset("INet2"), dist_opts());
  const auto world = h.world_builder(n, &churn)();
  dvm::EngineConfig engine = h.options().engine;
  engine.runtime_shards = kReplayShards;
  runtime::ShardedRuntime rt(h.topology(), engine);
  for (const auto& plan : world.plans) rt.install(plan);
  for (DeviceId d = 0; d < world.tables.size(); ++d) {
    rt.post_initialize(d, world.tables[d]);
  }
  rt.wait_quiescent();
  const auto m0 = rt.metrics();
  CounterWindow counters;
  counters.reset();
  std::vector<Window> windows;
  double post_s = 0.0, quiesce_s = 0.0;
  scenario::StepCursor cur;
  for (std::size_t i = 0; i < world.steps.size(); ++i) {
    if (rec != nullptr && i % kTraceBlock == 0) {
      rec->enable(false);
      rec->drain();
      rec->enable(true);
    }
    const auto& step = world.steps[i];
    const fib::FibUpdate u = cur.resolve(step.update, step.erase_of);
    const auto a = Clock::now();
    std::shared_ptr<const fib::FibUpdate> handle;
    {
      obs::ScopedSpan span(span_ids().post);
      handle = rt.post_rule_update(u.device, u);
    }
    const auto b = Clock::now();
    {
      obs::ScopedSpan span(span_ids().quiesce);
      rt.wait_quiescent();
    }
    const auto c = Clock::now();
    cur.record(handle->rule_id);
    windows.push_back({recorder_ns(a), recorder_ns(c)});
    post_s += seconds_between(a, b);
    quiesce_s += seconds_between(b, c);
  }
  if (rec != nullptr) {
    rec->enable(false);
    rec->drain();
  }
  if (layers != nullptr && !world.steps.empty()) {
    Result& r = *layers;
    const auto m1 = rt.metrics();
    const double dn = static_cast<double>(world.steps.size());
    counters.report(r, world.steps.size());
    r.set("runtime.post_s", post_s / dn, "s");
    r.set("runtime.quiesce_s", quiesce_s / dn, "s");
    // Queue waits of the stream's jobs: each shard's samples are in
    // arrival order, jobs_per_shard[i] of them.
    std::vector<double> waits;
    std::size_t offset = 0;
    const auto& all = m1.queue_wait_seconds.values();
    for (std::size_t s = 0; s < m1.jobs_per_shard.size(); ++s) {
      const std::size_t before =
          s < m0.jobs_per_shard.size() ? m0.jobs_per_shard[s] : 0;
      for (std::size_t j = offset + before;
           j < offset + m1.jobs_per_shard[s]; ++j) {
        waits.push_back(all[j]);
      }
      offset += m1.jobs_per_shard[s];
    }
    r.set("runtime.queue_wait_p50_s", quantile(waits, 0.5), "s");
    r.set("runtime.queue_wait_p99_s", quantile(waits, 0.99), "s");
    double window_s = 0.0;
    for (const auto& w : windows) {
      window_s += static_cast<double>(w.end - w.start) * 1e-9;
    }
    double busy = 0.0;
    if (rec != nullptr) {
      for (const Span* s : inside(rec->trace, "runtime.batch", windows)) {
        busy += static_cast<double>(s->end - s->start) * 1e-9;
      }
    }
    r.set("runtime.shard_busy_frac",
          window_s > 0 ? busy / (window_s * rt.shard_count()) : 0.0,
          "ratio");
    const double frames = static_cast<double>(m1.frames - m0.frames);
    const double envs = static_cast<double>(m1.envelopes - m0.envelopes);
    r.set("runtime.mean_batch", frames > 0 ? envs / frames : 0.0, "count");
    r.set("runtime.frames_per_update", frames / dn, "count/op");
  }
  return sharded_rows(rt);
}

/// Round-trip time of one frame of `bytes` over a pair of Unix-domain
/// SocketTransports (median of 200 ping-pongs after a warm-up).
double uds_rtt_p50(std::size_t bytes, const SocketDir& dir) {
  const auto eps = net::local_endpoints(net::TransportKind::Unix,
                                        dir.path() + "/rtt", 2, 0);
  mkdir((dir.path() + "/rtt").c_str(), 0700);
  std::vector<double> rtts;
  {
    net::SocketTransport a(net::mesh_config(0, eps));
    net::SocketTransport b(net::mesh_config(1, eps));
    std::mutex mu;
    std::condition_variable cv;
    std::uint64_t echoed = 0;
    net::Transport::Handlers hb;
    hb.on_frame = [&b](net::PeerId from, std::vector<std::uint8_t> f) {
      b.send(from, std::move(f));
    };
    net::Transport::Handlers ha;
    ha.on_frame = [&](net::PeerId, std::vector<std::uint8_t>) {
      {
        std::lock_guard<std::mutex> lock(mu);
        ++echoed;
      }
      cv.notify_one();
    };
    b.start(hb);
    a.start(ha);
    const std::vector<std::uint8_t> payload(std::max<std::size_t>(bytes, 1),
                                            0x5a);
    for (std::uint64_t i = 1; i <= 220; ++i) {
      const auto t0 = Clock::now();
      a.send(1, payload);
      std::unique_lock<std::mutex> lock(mu);
      if (!cv.wait_for(lock, std::chrono::seconds(5),
                       [&] { return echoed >= i; })) {
        throw Error("UDS ping-pong timed out");
      }
      if (i > 20) rtts.push_back(seconds_since(t0));
    }
    a.stop();
    b.stop();
  }
  for (const auto& ep : eps) unlink(ep.address.c_str());
  rmdir((dir.path() + "/rtt").c_str());
  return median(rtts);
}

/// Per-layer metrics of the traced dist-uds repetition `d`: the device
/// processes' and coordinator's spans split the update windows (the
/// coordinator's dist.phase spans), and an in-process build and
/// single-threaded codec replay of the same world give the planner and
/// codec layers.
void dist_layers(Result& r, const DistRep& d,
                 const scenario::ChurnProfile& churn, std::size_t per_rep,
                 const std::vector<double>& untraced_lat, Recorder& rec,
                 const SocketDir& dir) {
  for (const auto& snap : d.res.traces) flatten(snap, rec.trace);
  std::vector<Window> windows;
  for (const auto& s : rec.trace.spans) {
    if (!s.event && s.name == "dist.phase" && s.arg >= 1) {
      windows.push_back({s.start, s.end});
    }
  }
  std::sort(windows.begin(), windows.end(),
            [](const Window& a, const Window& b) { return a.start < b.start; });
  const double dn = static_cast<double>(per_rep);
  const auto& v = d.res.incremental_wall_seconds.values();
  set_trace_overhead(r, std::vector<double>(v.begin(), v.end()),
                     untraced_lat);
  const Attribution a = attribute(rec.trace, windows);
  set_attribution(r, a);
  r.set("coord.phase_s", a.total_s / dn, "s");
  r.set("coord.device_busy_s",
        covered_s(rec.trace, {"dist.device_phase", "dist.handle_data"},
                  windows) /
            dn,
        "s");
  // The coordinator records no span of its own work inside a phase, so its
  // wait is the explicit residual: phase time with no device span open on
  // any rank and no frame in flight.
  r.set("coord.wait_s",
        (a.total_s - covered_s(rec.trace,
                               {"dist.device_phase", "dist.handle_data"},
                               windows, true)) /
            dn,
        "s");
  r.set("coord.probe_waves_per_update",
        static_cast<double>(
            inside(rec.trace, "dist.probe_wave", windows).size()) /
            dn,
        "count/op");
  r.set("coord.collect_s", d.collect_s, "s");
  runtime::DistRollup rollup;
  for (auto e : d.res.entries) {
    e.trace.clear();
    rollup.entries.push_back(std::move(e));
  }
  r.set("coord.root_rollup_bytes",
        static_cast<double>(runtime::encode_dist(rollup).size()), "B");
  double dvm_phase[3] = {0, 0, 0};
  const char* dvm_names[3] = {"device.lec_delta", "device.recompute",
                              "device.emit"};
  for (int k = 0; k < 3; ++k) {
    for (const Span* s : inside(rec.trace, dvm_names[k], windows)) {
      dvm_phase[k] += static_cast<double>(s->end - s->start) * 1e-9;
    }
  }
  r.set("dvm.lec_delta_s", dvm_phase[0] / dn, "s");
  r.set("dvm.recompute_s", dvm_phase[1] / dn, "s");
  r.set("dvm.emit_s", dvm_phase[2] / dn, "s");
  const auto tx = inside(rec.trace, "net.tx_frame", windows);
  std::vector<double> sizes;
  double tx_bytes = 0.0;
  for (const Span* s : tx) {
    sizes.push_back(static_cast<double>(s->arg));
    tx_bytes += static_cast<double>(s->arg);
  }
  r.set("net.frames_per_update", static_cast<double>(tx.size()) / dn,
        "count/op");
  r.set("net.bytes_per_update", tx_bytes / dn, "B");
  const auto& t = d.res.metrics.transport;
  r.set("net.send_queue_peak", static_cast<double>(t.send_queue_peak),
        "count");
  r.set("net.reconnects", static_cast<double>(t.reconnects), "count");
  r.set("net.protocol_errors", static_cast<double>(t.protocol_errors),
        "count");
  r.set("net.rtt_p50_s",
        uds_rtt_p50(static_cast<std::size_t>(quantile(sizes, 0.5)), dir),
        "s");

  eval::Harness h(eval::dataset("INet2"), dist_opts());
  const auto hits0 = registry_counter("planner_dfa_cache_hits");
  const auto misses0 = registry_counter("planner_dfa_cache_misses");
  FlatTrace setup_trace;
  obs::set_trace_enabled(true);
  const auto world = h.world_builder(per_rep, &churn)();
  obs::set_trace_enabled(false);
  flatten(obs::drain_snapshot(), setup_trace);
  rec.trace.drops += setup_trace.drops;
  set_planner_spans(r, setup_trace, "planner.commit");
  set_dfa_hit_rate(r, hits0, misses0);
  r.set("planner.replanned_per_commit",
        static_cast<double>(world.plans.size()), "count/op");
  CodecReplay replay(h.topology(), world, h.options().engine);
  replay.burst();
  const auto codec = replay.stream(per_rep, rec);
  set_codec(r, codec);
  r.set("dvm.envelopes_per_update",
        static_cast<double>(codec.envelopes) / dn, "count/op");
}

}  // namespace

Result run_dist(const Options& o) {
  Result r;
  Recorder rec(o.trace);
  if (o.trace) zero_layers(r);
  r.note("dist-uds traffic crosses loopback Unix-domain sockets on one "
         "host, not a real link");
  SocketDir dir;
  std::vector<double> setup, burst, untraced_lat;
  StreamReps stream;
  std::size_t ops = 0;
  const auto run_start = Clock::now();

  // Repetition 0 loads the world and stops after the burst; its DVM frame
  // bytes are the burst's, subtracted from the update repetitions'.
  const auto burst_only = dist_rep(
      churn_profile(o.seed, 0, 1), 0, false, dir);
  setup.push_back(burst_only.setup_s);
  burst.push_back(burst_only.res.burst_wall_seconds);
  const double burst_bytes =
      static_cast<double>(burst_only.res.metrics.frame_bytes);
  const double burst_envelopes =
      static_cast<double>(burst_only.res.metrics.envelopes);
  std::vector<double> msg_bytes, envelopes;

  // Each repetition's stream and final digest, checked once every
  // repetition has run.
  struct Pending {
    std::size_t rep = 0;
    scenario::ChurnProfile churn;
    Digest got;
  };
  std::vector<Pending> pending;
  std::optional<DistRep> traced_rep;

  const std::size_t per_rep = o.trace ? kDistTraceOps : kDistOpsPerRep;
  for (std::size_t rep = 1;; ++rep) {
    const bool more =
        rep <= kMinReps || seconds_since(run_start) < o.seconds;
    // A traced run makes one untraced and one traced repetition.
    if (o.trace ? rep > 2 : !more) break;
    const bool traced = o.trace && rep == 2;
    const auto churn = churn_profile(o.seed, rep, per_rep);
    if (traced) obs::set_trace_enabled(true);
    DistRep d = dist_rep(churn, per_rep, traced, dir);
    setup.push_back(d.setup_s);
    burst.push_back(d.res.burst_wall_seconds);
    msg_bytes.push_back(
        (static_cast<double>(d.res.metrics.frame_bytes) - burst_bytes) /
        static_cast<double>(per_rep));
    envelopes.push_back(
        (static_cast<double>(d.res.metrics.envelopes) - burst_envelopes) /
        static_cast<double>(per_rep));
    ops += per_rep;
    r.attempted = ops;
    pending.push_back(
        {rep, churn, make_digest(d.res.rows, d.res.violations)});
    if (traced) {
      traced_rep = std::move(d);
      continue;
    }
    const auto& v = d.res.incremental_wall_seconds.values();
    stream.add(std::vector<double>(v.begin(), v.end()), d.stream_wall_s);
    untraced_lat.assign(v.begin(), v.end());
  }
  // The peak resident set of the repetitions, read before any in-process
  // replay or oracle below adds its own.
  r.set("rss_peak_mb", rss_peak_mb(), "MB");

  {
    eval::Harness h(eval::dataset("INet2"), dist_opts());
    note_stream_shares(r, h.topology(), pending.front().churn, per_rep);
  }
  // The oracle replay of the traced repetition also measures the runtime,
  // index and predicate layers: the device processes' own counters stay in
  // their address spaces.
  for (const auto& p : pending) {
    const bool traced = traced_rep && p.rep == pending.back().rep;
    check(r,
          "rep " + std::to_string(p.rep) +
              " digest vs in-process ShardedRuntime replay",
          p.got,
          sharded_replay(p.churn, per_rep, traced ? &rec : nullptr,
                         traced ? &r : nullptr));
  }
  if (traced_rep) {
    dist_layers(r, *traced_rep, pending.back().churn, per_rep, untraced_lat,
                rec, dir);
  }
  set_setup_metrics(r, setup, burst);
  set_update_metrics(r, stream);
  r.set("msg_bytes_per_update", median(msg_bytes), "B");
  if (!o.trace) {
    r.set("dvm.envelopes_per_update", median(envelopes), "count/op");
  }
  if (o.trace) {
    r.set("obs.ring_drops", static_cast<double>(rec.trace.drops), "count");
  }
  return r;
}

// --- intents -------------------------------------------------------------------

namespace {

/// An intent is named by its (src, dst) pair: shortest+1 reachability of
/// dst's first prefix from src, as in bench_planner's multi-tenant profile.
using IntentKey = std::pair<DeviceId, DeviceId>;

spec::Invariant make_intent(const topo::Topology& topo,
                            packet::PacketSpace& space, IntentKey k) {
  spec::Builtins b(topo, space);
  return b.shortest_plus_reachability(
      space.dst_prefix(topo.prefixes(k.second).front()), k.first, k.second,
      1);
}

std::vector<IntentKey> initial_intents(const topo::Topology& topo) {
  std::vector<IntentKey> out;
  const auto n = topo.device_count();
  for (std::size_t i = 0; i < kIntents; ++i) {
    const auto dst = static_cast<DeviceId>(i % n);
    auto src = static_cast<DeviceId>((dst + 1 + i / n) % n);
    if (src == dst) src = static_cast<DeviceId>((src + 1) % n);
    out.emplace_back(src, dst);
  }
  return out;
}

/// The two links the stream flaps, picked as bench_planner picks them from
/// the committed initial plans: the link carried by the fewest plans
/// ("edge", an access link) and the median-support link ("core", a shared
/// trunk). Fixed links keep the per-flap replan work the same from seed to
/// seed.
std::vector<LinkId> flap_links(const planner::PlanService& svc) {
  std::map<std::pair<DeviceId, DeviceId>, std::size_t> support;
  for (const auto* plan : svc.plans()) {
    std::set<std::pair<DeviceId, DeviceId>> on_plan;
    const auto& dag = *plan->dag;
    for (std::size_t id = 0; id < dag.node_count(); ++id) {
      const auto& nd = dag.node(id);
      for (const auto& e : nd.down) {
        const DeviceId a = nd.dev;
        const DeviceId b = dag.node(e.to).dev;
        on_plan.insert({std::min(a, b), std::max(a, b)});
      }
    }
    for (const auto& l : on_plan) ++support[l];
  }
  std::vector<std::pair<std::size_t, std::pair<DeviceId, DeviceId>>> by_load;
  for (const auto& [l, c] : support) by_load.push_back({c, l});
  std::sort(by_load.begin(), by_load.end());
  const auto edge = by_load.front().second;
  const auto core = by_load[by_load.size() / 2].second;
  return {LinkId{edge.first, edge.second}, LinkId{core.first, core.second}};
}

planner::PlanServiceOptions service_opts(std::size_t workers) {
  planner::PlanServiceOptions p;
  p.workers = workers;
  return p;
}

/// A resident intent set: the service, its packet space, and the history
/// the from-scratch oracle replays.
struct IntentWorld {
  std::unique_ptr<packet::PacketSpace> space;
  std::unique_ptr<planner::PlanService> svc;
  std::vector<IntentKey> added;        // in id order (ids start at 1)
  std::vector<InvariantId> live;       // resident ids
  std::vector<InvariantId> removed;
  std::vector<LinkId> flap;            // edge and core link
  std::optional<LinkId> down;          // at most one link is down
  double setup_s = 0.0;
  double burst_s = 0.0;
};

/// Set-up (service construction and loading the intent set) is a few
/// milliseconds, so it is repeated kIntentSetups times and the median
/// kept; the last set-up goes on to the burst.
constexpr std::size_t kIntentSetups = 5;

std::unique_ptr<IntentWorld> intent_world(const topo::Topology& topo) {
  std::unique_ptr<IntentWorld> w;
  std::vector<double> setups;
  for (std::size_t i = 0; i < kIntentSetups; ++i) {
    w.reset();  // one service resident at a time
    w = std::make_unique<IntentWorld>();
    const auto t0 = Clock::now();
    w->space = std::make_unique<packet::PacketSpace>();
    w->svc = std::make_unique<planner::PlanService>(
        topo, *w->space, service_opts(kPlanWorkers));
    for (const auto& k : initial_intents(topo)) {
      w->live.push_back(
          w->svc->add_invariant(make_intent(topo, *w->space, k)));
      w->added.push_back(k);
    }
    setups.push_back(seconds_since(t0));
  }
  w->setup_s = median(setups);
  const auto t1 = Clock::now();
  (void)w->svc->commit();
  w->burst_s = seconds_since(t1);
  w->flap = flap_links(*w->svc);
  return w;
}

struct IntentOpCounts {
  std::size_t adds = 0, removes = 0, flaps = 0;
};

/// The stream runs in blocks of kIntentBlock operations: one edge-link
/// down/up cycle in the first half of a block, one core-link cycle in the
/// second, and seeded intent adds and removes (50/50) everywhere else.
/// Fixed shares keep the stream's work the same from seed to seed: a core
/// flap replans every intent routed over the trunk, tens of milliseconds.
constexpr std::size_t kIntentBlock = 80;

/// Which link (w.flap index) operation `i` of a rep's stream flaps, or -1
/// for an intent edit. Flap positions are drawn once per block.
std::vector<int> intent_schedule(std::size_t n_ops, Rng& rng) {
  std::vector<int> kind(n_ops, -1);
  constexpr std::size_t kQuarter = kIntentBlock / 4;
  for (std::size_t b = 0; b + kIntentBlock <= n_ops; b += kIntentBlock) {
    for (int link = 0; link < 2; ++link) {
      const std::size_t down =
          b + static_cast<std::size_t>(link) * 2 * kQuarter +
          rng.index(kQuarter);
      kind[down] = link;
      kind[down + kQuarter] = link;
    }
  }
  return kind;
}

/// One stream operation followed by a commit: flap link `kind` (down, or
/// back up if it is the downed one), or add or remove an intent. Returns
/// the number of intents the commit replanned.
std::size_t intent_op(IntentWorld& w, const topo::Topology& topo, int kind,
                      Rng& rng, IntentOpCounts& counts) {
  {
    obs::ScopedSpan span(span_ids().edit);
    if (kind >= 0) {
      const LinkId link = w.flap[static_cast<std::size_t>(kind)];
      const bool up = w.down == link;
      w.svc->set_link_state(link, up);
      if (up) {
        w.down.reset();
      } else {
        w.down = link;
      }
      ++counts.flaps;
    } else if (w.live.empty() || rng.chance(0.5)) {
      const auto n = topo.device_count();
      const auto src = static_cast<DeviceId>(rng.index(n));
      auto dst = static_cast<DeviceId>(rng.index(n - 1));
      if (dst >= src) ++dst;
      w.live.push_back(
          w.svc->add_invariant(make_intent(topo, *w.space, {src, dst})));
      w.added.emplace_back(src, dst);
      ++counts.adds;
    } else {
      const std::size_t i = rng.index(w.live.size());
      w.svc->remove_invariant(w.live[i]);
      w.removed.push_back(w.live[i]);
      w.live[i] = w.live.back();
      w.live.pop_back();
      ++counts.removes;
    }
  }
  obs::ScopedSpan span(span_ids().commit);
  return w.svc->commit().replanned.size();
}

/// What the intents oracle needs of a repetition: the edit history and the
/// final digest, kept so the service can be freed before any check runs.
struct IntentHistory {
  std::size_t rep = 0;
  std::vector<IntentKey> added;
  std::vector<InvariantId> removed;
  std::optional<LinkId> down;
  std::size_t live = 0;
  std::uint64_t digest = 0;
};

/// The intents oracle: a serial service that adds the same history, removes
/// the same ids, downs the same link, and plans everything in one commit.
bool intents_oracle(const topo::Topology& topo, const IntentHistory& h,
                    std::string& detail) {
  packet::PacketSpace space;
  planner::PlanService svc(topo, space, service_opts(1));
  for (const auto& k : h.added) {
    (void)svc.add_invariant(make_intent(topo, space, k));
  }
  for (const InvariantId id : h.removed) svc.remove_invariant(id);
  if (h.down) svc.set_link_state(*h.down, false);
  (void)svc.commit();
  const std::uint64_t want = svc.digest();
  detail = "digest " + std::to_string(h.digest) + " vs " +
           std::to_string(want) + ", " + std::to_string(h.live) +
           " resident intents";
  return h.digest == want;
}

}  // namespace

Result run_intents(const Options& o) {
  Result r;
  Recorder rec(o.trace);
  if (o.trace) zero_layers(r);
  // bench_planner's 64-device WAN.
  const auto topo = topo::synthetic_wan("pl", 64, 128, 42);
  std::vector<double> setup, burst, lat_traced, lat_untraced, replanned;
  std::vector<Window> windows;
  StreamReps stream;
  std::size_t ops = 0;
  IntentOpCounts counts;
  std::vector<IntentHistory> history;
  const auto run_start = Clock::now();

  for (std::size_t rep = 0;; ++rep) {
    const bool more =
        rep < kMinReps || seconds_since(run_start) < o.seconds;
    if (!more || (o.trace && rep == 1)) break;
    auto w = intent_world(topo);
    setup.push_back(w->setup_s);
    burst.push_back(w->burst_s);
    Rng rng(mix_seed(o.seed, rep));
    const auto schedule = intent_schedule(kIntentOpsPerRep, rng);
    const auto hits0 = registry_counter("planner_dfa_cache_hits");
    const auto misses0 = registry_counter("planner_dfa_cache_misses");
    std::vector<double> lat;
    const auto t_stream = Clock::now();
    for (std::size_t i = 0; i < kIntentOpsPerRep; ++i) {
      const bool traced = o.trace && (i / kTraceBlock) % 2 == 1;
      if (o.trace && i % kTraceBlock == 0) {
        rec.enable(false);
        rec.drain();
        rec.enable(traced);
      }
      const auto a = Clock::now();
      replanned.push_back(
          static_cast<double>(intent_op(*w, topo, schedule[i], rng, counts)));
      const auto b = Clock::now();
      const double dt = seconds_between(a, b);
      lat.push_back(dt);
      if (traced) {
        lat_traced.push_back(dt);
        windows.push_back({recorder_ns(a), recorder_ns(b)});
      } else {
        lat_untraced.push_back(dt);
      }
    }
    stream.add(lat, seconds_since(t_stream));
    rec.enable(false);
    rec.drain();
    ops += kIntentOpsPerRep;
    r.attempted = ops;
    if (o.trace) {
      set_planner_spans(r, rec.trace, "bench.planner.commit");
      set_dfa_hit_rate(r, hits0, misses0);
      set_attribution(r, attribute(rec.trace, windows));
      set_trace_overhead(r, lat_traced, lat_untraced);
    }
    history.push_back({rep, std::move(w->added), std::move(w->removed),
                       w->down, w->live.size(), w->svc->digest()});
  }
  // The peak resident set of the repetitions, read before any oracle
  // service adds its own.
  r.set("rss_peak_mb", rss_peak_mb(), "MB");
  for (const auto& h : history) {
    std::string detail;
    const bool ok = intents_oracle(topo, h, detail);
    r.oracle("rep " + std::to_string(h.rep) +
                 " digest vs from-scratch serial replan",
             ok, detail);
  }

  set_setup_metrics(r, setup, burst);
  set_update_metrics(r, stream);
  r.set("planner.replanned_per_commit", mean(replanned), "count/op");
  const double n = ops == 0 ? 1.0 : static_cast<double>(ops);
  r.note("input shares: intent adds " + fmt(counts.adds / n) +
         ", removes " + fmt(counts.removes / n) + ", link flaps " +
         fmt(counts.flaps / n) + "; intents replanned per commit " +
         fmt(mean(replanned)) + " (median " + fmt(median(replanned)) + ")");
  if (o.trace) {
    r.set("obs.ring_drops", static_cast<double>(rec.trace.drops), "count");
  }
  return r;
}

}  // namespace perfbench
