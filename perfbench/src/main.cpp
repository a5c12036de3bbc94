// Update-to-verdict benchmark: entry point.
//
//   perfbench --workload <dist-uds|intents> --seed N
//             --seconds S --trace 0|1
//
// --trace 0 measures the end-to-end metrics with the flight recorder off;
// --trace 1 is the separate traced run that splits update time over the
// layers. The last stdout line is "PERFBENCH_RESULT <json>" carrying every
// metric the run computed; run.py selects the ones BENCHMARK.json names.
// The exit code is 1 when an oracle check fails and 2 on bad arguments or a
// refused build.
#include <sched.h>

#include <cstdio>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "eval/dist_run.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_GIT_DESCRIBE
#define PERFBENCH_GIT_DESCRIBE "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

// A sanitizer build, however its flags were passed, as the compiler sees it.
#if defined(__SANITIZE_ADDRESS__)
#define PERFBENCH_SANITIZER "address"
#elif defined(__SANITIZE_THREAD__)
#define PERFBENCH_SANITIZER "thread"
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define PERFBENCH_SANITIZER "address"
#elif __has_feature(thread_sanitizer)
#define PERFBENCH_SANITIZER "thread"
#elif __has_feature(memory_sanitizer)
#define PERFBENCH_SANITIZER "memory"
#endif
#endif
#ifndef PERFBENCH_SANITIZER
#define PERFBENCH_SANITIZER ""
#endif

namespace {

using namespace perfbench;

bool parse(int argc, char** argv, Options& o) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        o.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        o.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        o.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return false;
        o.trace = value == "1";
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return have_workload && argc % 2 == 1 && o.seconds > 0;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

std::size_t usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) {
    return std::thread::hardware_concurrency();
  }
  return static_cast<std::size_t>(CPU_COUNT(&set));
}

}  // namespace

int main(int argc, char** argv) {
  // Forked device processes of the dist-uds workload re-exec this binary.
  if (tulkun::eval::maybe_run_device_role(argc, argv)) return 0;

  Options o;
  if (!parse(argc, argv, o)) {
    std::cerr << "usage: perfbench --workload "
                 "<dist-uds|intents> --seed N --seconds S "
                 "--trace 0|1\n";
    return 2;
  }
  const std::string sanitize = PERFBENCH_SANITIZER;
  if (!o.trace && !sanitize.empty()) {
    std::cerr << "refusing to report end-to-end metrics from a sanitizer "
                 "build (" << sanitize << ")\n";
    return 2;
  }
  if (!o.trace && obs::trace_enabled()) {
    std::cerr << "refusing to report end-to-end metrics with tracing on\n";
    return 2;
  }
  if (o.trace && !obs::kTraceCompiledIn) {
    std::cerr << "the traced run needs TULKUN_TRACE=ON\n";
    return 2;
  }

  std::cout << "stamp: workload=" << o.workload << " seed=" << o.seed
            << " seconds=" << o.seconds << " trace=" << (o.trace ? 1 : 0)
            << " nproc=" << usable_cpus()
            << " build_type=" << PERFBENCH_BUILD_TYPE
            << " sanitize=" << (sanitize.empty() ? "none" : sanitize)
            << " git_describe=" << PERFBENCH_GIT_DESCRIBE
            << " trace_compiled_in=" << (obs::kTraceCompiledIn ? 1 : 0)
            << std::endl;

  Result r;
  try {
    if (o.workload == "dist-uds") {
      r = run_dist(o);
    } else if (o.workload == "intents") {
      r = run_intents(o);
    } else {
      std::cerr << "unknown workload " << o.workload << "\n";
      return 2;
    }
  } catch (const std::exception& e) {
    r.note(std::string("workload failed: ") + e.what());
    r.correct = false;
    if (r.attempted == 0) r.attempted = 1;
  }
  if (!r.correct) r.failed = r.attempted;
  // Workloads read the peak before their oracles run; a workload that
  // failed first gets the peak so far.
  if (!r.has("rss_peak_mb")) r.set("rss_peak_mb", rss_peak_mb(), "MB");

  for (const auto& line : r.notes) std::cout << line << "\n";
  std::cout << "error_rate: " << r.failed << "/" << r.attempted << "\n";
  std::ostringstream js;
  js << "{\"correct\": " << (r.correct ? "true" : "false")
     << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
     << ", \"stamp\": {\"nproc\": " << usable_cpus() << ", \"build_type\": \""
     << json_escape(PERFBENCH_BUILD_TYPE) << "\", \"git_describe\": \""
     << json_escape(PERFBENCH_GIT_DESCRIBE) << "\", \"seed\": " << o.seed
     << ", \"trace\": " << (o.trace ? 1 : 0)
     << ", \"trace_compiled_in\": " << (obs::kTraceCompiledIn ? 1 : 0)
     << "}, \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const auto& m = r.metrics[i];
    js << (i ? ", " : "") << "\"" << json_escape(m.name)
       << "\": {\"value\": " << num(m.value) << ", \"unit\": \""
       << json_escape(m.unit) << "\"}";
  }
  js << "}}";
  std::cout << "PERFBENCH_RESULT " << js.str() << std::endl;
  return r.correct ? 0 : 1;
}
