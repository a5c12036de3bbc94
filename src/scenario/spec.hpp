// Scenario schedule serialization: everything a soak or fuzz run needs to
// be replayed — the churn profile, the chaos profile and the kill schedule
// — as a deterministic `key=value` text form.
//
// Two framings of the same format:
//  - multi-line (one pair per line): the --scenario-dump / --scenario-replay
//    file format, so any fuzzer-found divergence is reproducible from its
//    dumped schedule;
//  - single-line (';'-separated): the --churn= / --chaos= argv values the
//    forking launcher ships to device processes (the world spec string is
//    comma-separated, so these stay separate flags).
//
// Unknown keys and malformed pairs throw Error: a schedule that does not
// round-trip must fail loudly, not silently change the run.
#pragma once

#include <string>
#include <vector>

#include "net/transport.hpp"
#include "scenario/chaos.hpp"
#include "scenario/workload.hpp"

namespace tulkun::scenario {

/// Kill `rank` when it receives Begin for `phase` or, when `after_frames`
/// is N > 0, right after it processes the Nth Data frame of `phase` (a
/// crash mid-cascade). First incarnation only; the supervisor re-forks it
/// and the run reconverges through catch-up recovery. Requires process
/// isolation (uds|tcp). Text form: `PHASE` or `PHASE+N`.
struct KillSpec {
  net::PeerId rank = 1;
  std::uint32_t phase = 1;
  std::uint32_t after_frames = 0;
};

/// Parses the text form above into `k.phase`/`k.after_frames`.
void parse_kill_when(const std::string& text, KillSpec& k);

struct ScenarioSpec {
  ChurnProfile churn;
  ChaosProfile chaos;
  std::vector<KillSpec> kills;
};

/// Multi-line form; ends with a trailing newline.
[[nodiscard]] std::string format_scenario(const ScenarioSpec& spec);
/// Accepts both framings ('\n' or ';' separators). Throws Error on any
/// unknown key or malformed pair.
[[nodiscard]] ScenarioSpec parse_scenario(const std::string& text);

/// Single-line argv forms for one profile each (empty input = defaults).
[[nodiscard]] std::string format_churn_arg(const ChurnProfile& p);
[[nodiscard]] ChurnProfile parse_churn_arg(const std::string& s);
[[nodiscard]] std::string format_chaos_arg(const ChaosProfile& p);
[[nodiscard]] ChaosProfile parse_chaos_arg(const std::string& s);

}  // namespace tulkun::scenario
