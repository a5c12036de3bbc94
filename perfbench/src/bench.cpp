#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <iterator>
#include <set>

#include "net/frame.hpp"

namespace perfbench {

void Result::set(const std::string& name, double value,
                 const std::string& unit) {
  for (auto& m : metrics) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics.push_back({name, value, unit});
}

bool Result::has(const std::string& name) const {
  return std::any_of(metrics.begin(), metrics.end(),
                     [&](const Metric& m) { return m.name == name; });
}

void Result::oracle(const std::string& what, bool ok,
                    const std::string& detail) {
  note(std::string("oracle ") + what + ": " + (ok ? "match" : "MISMATCH") +
       (detail.empty() ? "" : " (" + detail + ")"));
  if (!ok) correct = false;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double rss_peak_mb() {
  struct rusage self {};
  struct rusage children {};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  // ru_maxrss is in KiB on Linux; the children figure is the largest
  // single reaped child.
  return static_cast<double>(self.ru_maxrss + children.ru_maxrss) / 1024.0;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// --- trace analysis -------------------------------------------------------

void flatten(const obs::TraceSnapshot& snap, FlatTrace& out) {
  for (const auto& t : snap.threads) {
    out.drops += t.dropped;
    for (const auto& r : t.records) {
      Span s;
      s.name = r.name_id < snap.names.size() ? snap.names[r.name_id] : "?";
      s.start = r.start_ns;
      s.end = r.start_ns + r.dur_ns;
      s.rank = r.rank;
      s.arg = r.arg;
      s.event = r.kind == obs::RecordKind::kEvent;
      out.spans.push_back(std::move(s));
    }
  }
}

namespace {

constexpr std::size_t kNumLayers = std::size(kLayers);

int layer_index(const std::string& layer) {
  for (std::size_t i = 0; i < kNumLayers; ++i) {
    if (layer == kLayers[i]) return static_cast<int>(i);
  }
  return -1;
}

/// Which layer a recorded span belongs to (-1: not a layer span). Spans
/// under src/ keep their names; bench.* spans are this benchmark's own,
/// recorded around the public call into the layer.
int layer_of(const std::string& name) {
  static const std::map<std::string, int> table = {
      {"fib.box_query", layer_index("fib")},
      {"device.lec_delta", layer_index("dvm")},
      {"device.recompute", layer_index("dvm")},
      {"device.emit", layer_index("dvm")},
      {"planner.product", layer_index("planner")},
      {"planner.dfa", layer_index("planner")},
      {"planner.minimize", layer_index("planner")},
      {"planner.commit", layer_index("planner")},
      {"bench.planner.commit", layer_index("planner")},
      {"bench.planner.edit", layer_index("planner")},
      {"runtime.batch", layer_index("runtime")},
      {"dist.handle_data", layer_index("runtime")},
      {"dist.device_phase", layer_index("runtime")},
      {"bench.runtime.post", layer_index("runtime")},
      {"bench.runtime.quiesce", layer_index("runtime")},
  };
  const auto it = table.find(name);
  return it == table.end() ? -1 : it->second;
}

struct Interval {
  std::uint64_t start = 0;
  std::uint64_t end = 0;
  int layer = 0;
};

/// In-flight transport intervals: each net.tx_frame event paired with a
/// net.rx_frame event of the same frame (tx counts the frame header, rx
/// only the payload) on another rank, nearest pairs first, each event used
/// once, so the copies of a broadcast pair with one receiver each. The
/// sender records tx only once the kernel has taken the frame's last byte,
/// often after a loopback receiver has already recorded rx, so a pair
/// covers the span between its two events in either order. Pairs further
/// apart than kMaxPairGapNs are not the same frame.
std::vector<Interval> inflight(const FlatTrace& trace) {
  constexpr std::uint64_t kMaxPairGapNs = 5'000'000;
  std::map<std::uint64_t, std::vector<const Span*>> rx_by_payload;
  std::vector<const Span*> tx;
  for (const auto& s : trace.spans) {
    if (!s.event) continue;
    if (s.name == "net.rx_frame") rx_by_payload[s.arg].push_back(&s);
    if (s.name == "net.tx_frame") tx.push_back(&s);
  }
  for (auto& [size, rx] : rx_by_payload) {
    std::sort(rx.begin(), rx.end(), [](const Span* a, const Span* b) {
      return a->start < b->start;
    });
  }
  struct Candidate {
    std::uint64_t gap;
    const Span* tx;
    const Span* rx;
  };
  std::vector<Candidate> candidates;
  for (const Span* s : tx) {
    if (s->arg < tulkun::net::kFrameHeaderBytes) continue;
    const auto it =
        rx_by_payload.find(s->arg - tulkun::net::kFrameHeaderBytes);
    if (it == rx_by_payload.end()) continue;
    const std::uint64_t from =
        s->start > kMaxPairGapNs ? s->start - kMaxPairGapNs : 0;
    auto r = std::lower_bound(
        it->second.begin(), it->second.end(), from,
        [](const Span* a, std::uint64_t t) { return a->start < t; });
    for (; r != it->second.end() && (*r)->start <= s->start + kMaxPairGapNs;
         ++r) {
      if ((*r)->rank == s->rank) continue;
      const std::uint64_t gap = (*r)->start > s->start
                                    ? (*r)->start - s->start
                                    : s->start - (*r)->start;
      candidates.push_back({gap, s, *r});
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.gap < b.gap;
            });
  std::set<const Span*> paired;
  std::vector<Interval> out;
  const int net = layer_index("net");
  for (const auto& c : candidates) {
    if (paired.count(c.tx) != 0 || paired.count(c.rx) != 0) continue;
    paired.insert(c.tx);
    paired.insert(c.rx);
    out.push_back({std::min(c.tx->start, c.rx->start),
                   std::max(c.tx->start, c.rx->start), net});
  }
  return out;
}

/// Sweeps interval boundaries and window boundaries in time order; `emit`
/// receives every elementary segment inside a window with the per-layer
/// count of open intervals.
template <typename Fn>
void sweep(const std::vector<Interval>& intervals,
           const std::vector<Window>& windows, std::size_t n_layers, Fn emit) {
  struct Edge {
    std::uint64_t t;
    int delta;
    int layer;  // -1 = window edge
  };
  std::vector<Edge> edges;
  edges.reserve(intervals.size() * 2 + windows.size() * 2);
  for (const auto& iv : intervals) {
    if (iv.end <= iv.start) continue;
    edges.push_back({iv.start, +1, iv.layer});
    edges.push_back({iv.end, -1, iv.layer});
  }
  for (const auto& w : windows) {
    if (w.end <= w.start) continue;
    edges.push_back({w.start, +1, -1});
    edges.push_back({w.end, -1, -1});
  }
  std::sort(edges.begin(), edges.end(),
            [](const Edge& a, const Edge& b) { return a.t < b.t; });
  std::vector<int> open(n_layers, 0);
  int in_window = 0;
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const Edge& e = edges[i];
    if (e.layer < 0) {
      in_window += e.delta;
    } else {
      open[static_cast<std::size_t>(e.layer)] += e.delta;
    }
    if (i + 1 < edges.size() && in_window > 0 && edges[i + 1].t > e.t) {
      emit(static_cast<double>(edges[i + 1].t - e.t) * 1e-9, open);
    }
  }
}

}  // namespace

Attribution attribute(const FlatTrace& trace,
                      const std::vector<Window>& windows) {
  std::vector<Interval> intervals = inflight(trace);
  for (const auto& s : trace.spans) {
    if (s.event) continue;
    const int layer = layer_of(s.name);
    if (layer >= 0) intervals.push_back({s.start, s.end, layer});
  }
  Attribution out;
  for (const char* l : kLayers) out.self_s[l] = 0.0;
  sweep(intervals, windows, kNumLayers,
        [&](double dt, const std::vector<int>& open) {
          out.total_s += dt;
          for (std::size_t l = 0; l < kNumLayers; ++l) {
            if (open[l] > 0) {
              out.self_s[kLayers[l]] += dt;
              return;
            }
          }
          out.unattributed_s += dt;
        });
  return out;
}

double covered_s(const FlatTrace& trace, const std::vector<std::string>& names,
                 const std::vector<Window>& windows, bool with_transport) {
  std::vector<Interval> intervals;
  if (with_transport) {
    for (auto iv : inflight(trace)) {
      iv.layer = 0;
      intervals.push_back(iv);
    }
  }
  for (const auto& s : trace.spans) {
    if (s.event) continue;
    if (std::find(names.begin(), names.end(), s.name) != names.end()) {
      intervals.push_back({s.start, s.end, 0});
    }
  }
  double total = 0.0;
  sweep(intervals, windows, 1, [&](double dt, const std::vector<int>& open) {
    if (open[0] > 0) total += dt;
  });
  return total;
}

std::vector<const Span*> inside(const FlatTrace& trace,
                                const std::string& name,
                                const std::vector<Window>& windows) {
  std::vector<const Span*> out;
  for (const auto& s : trace.spans) {
    if (s.name != name) continue;
    const auto it = std::upper_bound(
        windows.begin(), windows.end(), s.start,
        [](std::uint64_t t, const Window& w) { return t < w.start; });
    if (it == windows.begin()) continue;
    const Window& w = *std::prev(it);
    if (s.start < w.end) out.push_back(&s);
  }
  return out;
}

PlannerSpans planner_spans(const FlatTrace& trace,
                           const std::string& commit_name) {
  PlannerSpans out;
  std::vector<Window> commits;
  double commit_total = 0.0;
  for (const auto& s : trace.spans) {
    if (s.event || s.name != commit_name) continue;
    commits.push_back({s.start, s.end});
    commit_total += static_cast<double>(s.end - s.start) * 1e-9;
  }
  if (commits.empty()) return out;
  std::sort(commits.begin(), commits.end(),
            [](const Window& a, const Window& b) { return a.start < b.start; });
  const double plan_total = covered_s(trace, {"planner.product"}, commits);
  out.commit_s = commit_total / static_cast<double>(commits.size());
  out.plan_s = plan_total / static_cast<double>(commits.size());
  out.serial_frac =
      commit_total > 0.0 ? 1.0 - plan_total / commit_total : 0.0;
  return out;
}

}  // namespace perfbench
