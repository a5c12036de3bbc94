// Shared plumbing of the update-to-verdict benchmark: options, the result
// record every workload fills, timing and quantile helpers, and the
// flight-recorder analysis that splits update wall time over layers.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace.hpp"

namespace perfbench {

namespace obs = tulkun::obs;
using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
[[nodiscard]] inline double seconds_since(Clock::time_point a) {
  return seconds_between(a, Clock::now());
}
/// Nanoseconds on the flight recorder's clock (steady clock epoch), so
/// benchmark-side windows line up with recorded spans of every process on
/// this host.
[[nodiscard]] inline std::uint64_t recorder_ns(Clock::time_point t) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          t.time_since_epoch())
          .count());
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// What one run reports. Metrics keep insertion order; the binary prints
/// all of them and run.py keeps the ones BENCHMARK.json lists for the mode.
struct Result {
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics;
  /// Human-readable lines printed above the JSON line: sample counts,
  /// measured input shares, oracle outcomes.
  std::vector<std::string> notes;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;

  void set(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] bool has(const std::string& name) const;
  void note(const std::string& line) { notes.push_back(line); }
  /// Records an oracle verdict. A mismatch fails the run, and with it
  /// every attempted operation (main sets failed = attempted).
  void oracle(const std::string& what, bool ok, const std::string& detail);
};

[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}
[[nodiscard]] double mean(const std::vector<double>& v);

/// Peak resident set of this process plus its largest reaped child, MB,
/// so far: a high-water mark, read before the oracles run.
[[nodiscard]] double rss_peak_mb();

/// splitmix64: derives independent sub-seeds from the --seed argument.
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

// --- trace analysis -------------------------------------------------------

/// A recorded span or event, flattened out of a TraceSnapshot.
struct Span {
  std::string name;
  std::uint64_t start = 0;  // ns, steady clock (shared by all local procs)
  std::uint64_t end = 0;    // == start for events
  std::uint32_t rank = 0;
  std::uint64_t arg = 0;
  bool event = false;
};

struct FlatTrace {
  std::vector<Span> spans;
  std::uint64_t drops = 0;
};
void flatten(const obs::TraceSnapshot& snap, FlatTrace& out);

/// One operation's wall-clock window, [start, end) in recorder ns.
struct Window {
  std::uint64_t start = 0;
  std::uint64_t end = 0;
};

/// The layers update time is split over, in attribution priority order
/// (deepest first): an instant of an update window goes to the deepest
/// layer with a span open at that instant, on any thread of any process,
/// and an instant with none open is unattributed. Coordination has no
/// layer here: the coordinator records no span of its own work inside a
/// phase (dist.phase is the window itself), so its wait shows as
/// unattributed time.
inline constexpr const char* kLayers[] = {"fib", "dvm", "planner", "runtime",
                                          "net"};

struct Attribution {
  std::map<std::string, double> self_s;  // per layer, summed over windows
  double unattributed_s = 0.0;
  double total_s = 0.0;
};

/// Self time per layer over the windows. Transport time is the union of
/// in-flight intervals: from a net.tx_frame event on one rank to the
/// net.rx_frame event of the same frame on another.
[[nodiscard]] Attribution attribute(const FlatTrace& trace,
                                    const std::vector<Window>& windows);

/// Total time covered by the union of spans named in `names` inside
/// windows; with `with_transport`, frames in flight count as covered too.
[[nodiscard]] double covered_s(const FlatTrace& trace,
                               const std::vector<std::string>& names,
                               const std::vector<Window>& windows,
                               bool with_transport = false);

/// Spans (or events) named `name` that start inside any window.
[[nodiscard]] std::vector<const Span*> inside(
    const FlatTrace& trace, const std::string& name,
    const std::vector<Window>& windows);

/// Planner metrics from planner.commit / planner.product spans: mean
/// commit time, mean time under product spans per commit, and the share
/// of commit time outside them (the serial phases).
struct PlannerSpans {
  double commit_s = 0.0;
  double plan_s = 0.0;
  double serial_frac = 0.0;
};
[[nodiscard]] PlannerSpans planner_spans(const FlatTrace& trace,
                                         const std::string& commit_name);

}  // namespace perfbench
