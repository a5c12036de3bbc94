#include "scenario/spec.hpp"

#include <cstdio>
#include <cstdlib>

#include "core/error.hpp"

namespace tulkun::scenario {

namespace {

std::string fmt_f(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void append(std::string& out, const char* sep, const std::string& key,
            const std::string& value) {
  if (!out.empty()) out += sep;
  out += key;
  out += '=';
  out += value;
}

void churn_pairs(const ChurnProfile& p, const char* sep, std::string& out) {
  append(out, sep, "churn.seed", std::to_string(p.seed));
  append(out, sep, "churn.events", std::to_string(p.events));
  append(out, sep, "churn.rate_hz", fmt_f(p.rate_hz));
  append(out, sep, "churn.burst_factor", fmt_f(p.burst_factor));
  append(out, sep, "churn.burst_fraction", fmt_f(p.burst_fraction));
  append(out, sep, "churn.zipf_s", fmt_f(p.zipf_s));
  append(out, sep, "churn.flap_fraction", fmt_f(p.flap_fraction));
  append(out, sep, "churn.growth_fraction", fmt_f(p.growth_fraction));
  append(out, sep, "churn.drop_fraction", fmt_f(p.drop_fraction));
  append(out, sep, "churn.withdraw_batch_chance",
         fmt_f(p.withdraw_batch_chance));
  append(out, sep, "churn.withdraw_batch_max",
         std::to_string(p.withdraw_batch_max));
  append(out, sep, "churn.xform_profile", std::to_string(p.xform_profile));
  append(out, sep, "churn.xform_fraction", fmt_f(p.xform_fraction));
  append(out, sep, "churn.acl_fraction", fmt_f(p.acl_fraction));
  append(out, sep, "churn.legacy", p.legacy ? "1" : "0");
}

void chaos_pairs(const ChaosProfile& p, const char* sep, std::string& out) {
  append(out, sep, "chaos.seed", std::to_string(p.seed));
  append(out, sep, "chaos.loss", fmt_f(p.loss));
  append(out, sep, "chaos.dup", fmt_f(p.dup));
  append(out, sep, "chaos.reorder", fmt_f(p.reorder));
  append(out, sep, "chaos.reorder_spread_s", fmt_f(p.reorder_spread_s));
  append(out, sep, "chaos.delay_min_s", fmt_f(p.delay_min_s));
  append(out, sep, "chaos.delay_max_s", fmt_f(p.delay_max_s));
  append(out, sep, "chaos.gray_rank", std::to_string(p.gray_rank));
  append(out, sep, "chaos.gray_delay_s", fmt_f(p.gray_delay_s));
  append(out, sep, "chaos.rto_initial_s", fmt_f(p.rto_initial_s));
  append(out, sep, "chaos.rto_max_s", fmt_f(p.rto_max_s));
  for (const auto& w : p.linkdowns) {
    // Repeated key: one scheduled link flap per pair.
    append(out, sep, "linkdown",
           std::to_string(w.a) + "-" + std::to_string(w.b) + "@" +
               fmt_f(w.t0_s) + ".." + fmt_f(w.t1_s));
  }
}

std::uint64_t parse_u64(const std::string& key, const std::string& v) {
  char* end = nullptr;
  const std::uint64_t out = std::strtoull(v.c_str(), &end, 10);
  if (end == v.c_str() || *end != '\0') {
    throw Error("scenario spec: bad integer for " + key + ": " + v);
  }
  return out;
}

double parse_f(const std::string& key, const std::string& v) {
  char* end = nullptr;
  const double out = std::strtod(v.c_str(), &end);
  if (end == v.c_str() || *end != '\0') {
    throw Error("scenario spec: bad number for " + key + ": " + v);
  }
  return out;
}

/// Applies one key=value pair; returns false if the key is unknown.
bool apply_pair(ScenarioSpec& spec, const std::string& key,
                const std::string& value) {
  auto& c = spec.churn;
  auto& x = spec.chaos;
  if (key == "churn.seed") c.seed = parse_u64(key, value);
  else if (key == "churn.events") c.events = parse_u64(key, value);
  else if (key == "churn.rate_hz") c.rate_hz = parse_f(key, value);
  else if (key == "churn.burst_factor") c.burst_factor = parse_f(key, value);
  else if (key == "churn.burst_fraction")
    c.burst_fraction = parse_f(key, value);
  else if (key == "churn.zipf_s") c.zipf_s = parse_f(key, value);
  else if (key == "churn.flap_fraction")
    c.flap_fraction = parse_f(key, value);
  else if (key == "churn.growth_fraction")
    c.growth_fraction = parse_f(key, value);
  else if (key == "churn.drop_fraction")
    c.drop_fraction = parse_f(key, value);
  else if (key == "churn.withdraw_batch_chance")
    c.withdraw_batch_chance = parse_f(key, value);
  else if (key == "churn.withdraw_batch_max")
    c.withdraw_batch_max = static_cast<std::uint32_t>(parse_u64(key, value));
  else if (key == "churn.xform_profile")
    c.xform_profile = static_cast<std::uint32_t>(parse_u64(key, value));
  else if (key == "churn.xform_fraction")
    c.xform_fraction = parse_f(key, value);
  else if (key == "churn.acl_fraction") c.acl_fraction = parse_f(key, value);
  else if (key == "churn.legacy") c.legacy = value != "0";
  else if (key == "chaos.seed") x.seed = parse_u64(key, value);
  else if (key == "chaos.loss") x.loss = parse_f(key, value);
  else if (key == "chaos.dup") x.dup = parse_f(key, value);
  else if (key == "chaos.reorder") x.reorder = parse_f(key, value);
  else if (key == "chaos.reorder_spread_s")
    x.reorder_spread_s = parse_f(key, value);
  else if (key == "chaos.delay_min_s") x.delay_min_s = parse_f(key, value);
  else if (key == "chaos.delay_max_s") x.delay_max_s = parse_f(key, value);
  else if (key == "chaos.gray_rank")
    x.gray_rank = static_cast<std::uint32_t>(parse_u64(key, value));
  else if (key == "chaos.gray_delay_s") x.gray_delay_s = parse_f(key, value);
  else if (key == "chaos.rto_initial_s")
    x.rto_initial_s = parse_f(key, value);
  else if (key == "chaos.rto_max_s") x.rto_max_s = parse_f(key, value);
  else if (key == "linkdown") {
    // Window spec "a-b@t0..t1": the a<->b link is down during [t0, t1)
    // seconds from transport start.
    const std::size_t dash = value.find('-');
    const std::size_t at = value.find('@');
    const std::size_t dots = value.find("..");
    if (dash == std::string::npos || at == std::string::npos ||
        dots == std::string::npos || dash >= at || at >= dots) {
      throw Error("scenario spec: bad linkdown window: " + value);
    }
    LinkWindow w;
    w.a = static_cast<net::PeerId>(parse_u64(key, value.substr(0, dash)));
    w.b = static_cast<net::PeerId>(
        parse_u64(key, value.substr(dash + 1, at - dash - 1)));
    w.t0_s = parse_f(key, value.substr(at + 1, dots - at - 1));
    w.t1_s = parse_f(key, value.substr(dots + 2));
    if (w.t1_s < w.t0_s) {
      throw Error("scenario spec: linkdown window ends before it starts: " +
                  value);
    }
    x.linkdowns.push_back(w);
  } else if (key.rfind("kill.", 0) == 0) {
    KillSpec k;
    k.rank = static_cast<net::PeerId>(parse_u64(key, key.substr(5)));
    parse_kill_when(value, k);
    spec.kills.push_back(k);
  } else {
    return false;
  }
  return true;
}

void parse_into(ScenarioSpec& spec, const std::string& text) {
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find_first_of(";\n", pos);
    if (end == std::string::npos) end = text.size();
    const std::string pair = text.substr(pos, end - pos);
    pos = end + 1;
    if (pair.empty()) continue;
    const std::size_t eq = pair.find('=');
    if (eq == std::string::npos) {
      throw Error("scenario spec: malformed pair: " + pair);
    }
    const std::string key = pair.substr(0, eq);
    const std::string value = pair.substr(eq + 1);
    if (!apply_pair(spec, key, value)) {
      throw Error("scenario spec: unknown key: " + key);
    }
  }
}

}  // namespace

std::string format_scenario(const ScenarioSpec& spec) {
  std::string out;
  churn_pairs(spec.churn, "\n", out);
  chaos_pairs(spec.chaos, "\n", out);
  for (const auto& k : spec.kills) {
    std::string when = std::to_string(k.phase);
    if (k.after_frames > 0) when += "+" + std::to_string(k.after_frames);
    append(out, "\n", "kill." + std::to_string(k.rank), when);
  }
  out += '\n';
  return out;
}

void parse_kill_when(const std::string& text, KillSpec& k) {
  const std::size_t plus = text.find('+');
  k.phase = static_cast<std::uint32_t>(
      parse_u64("kill phase", text.substr(0, plus)));
  k.after_frames =
      plus == std::string::npos
          ? 0
          : static_cast<std::uint32_t>(
                parse_u64("kill frames", text.substr(plus + 1)));
}

ScenarioSpec parse_scenario(const std::string& text) {
  ScenarioSpec spec;
  parse_into(spec, text);
  return spec;
}

std::string format_churn_arg(const ChurnProfile& p) {
  std::string out;
  churn_pairs(p, ";", out);
  return out;
}

ChurnProfile parse_churn_arg(const std::string& s) {
  ScenarioSpec spec;
  parse_into(spec, s);
  return spec.churn;
}

std::string format_chaos_arg(const ChaosProfile& p) {
  std::string out;
  chaos_pairs(p, ";", out);
  return out;
}

ChaosProfile parse_chaos_arg(const std::string& s) {
  ScenarioSpec spec;
  parse_into(spec, s);
  return spec.chaos;
}

}  // namespace tulkun::scenario
