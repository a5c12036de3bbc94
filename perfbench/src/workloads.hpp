// The benchmark's workloads. Each is a closed loop: one loader keeps a
// single operation outstanding and submits the next only after every
// verdict (or plan) it affects is known.
#pragma once

#include "bench.hpp"

namespace perfbench {

/// eval::dist_run: coordinator plus 3 forked device processes over
/// loopback Unix-domain sockets, INet2, the same churn generator.
Result run_dist(const Options& o);

/// planner::PlanService alone, 4 workers, thousands of resident intents on
/// a 64-device WAN; a seeded mix of intent add/remove and link flaps.
Result run_intents(const Options& o);

}  // namespace perfbench
