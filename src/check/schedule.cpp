#include "check/schedule.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <stdexcept>

#include "core/setups.hpp"
#include "util/rng.hpp"

namespace dstage::check {

namespace {

constexpr core::Scheme kAllSchemes[] = {
    core::Scheme::kNone,          core::Scheme::kCoordinated,
    core::Scheme::kUncoordinated, core::Scheme::kIndividual,
    core::Scheme::kHybrid,
};

resilience::ResiliencePolicy resilience_for(int kind) {
  resilience::ResiliencePolicy p;
  switch (kind) {
    case 0:
      p.kind = resilience::Redundancy::kNone;
      break;
    case 1:
      p.kind = resilience::Redundancy::kReplication;
      p.replicas = 2;
      break;
    case 2:
      p.kind = resilience::Redundancy::kErasureCode;
      p.rs_k = 2;
      p.rs_m = 1;
      break;
    default:
      throw std::invalid_argument("schedule resilience kind must be 0..2");
  }
  return p;
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t end = s.find(sep, start);
    if (end == std::string::npos) {
      out.push_back(s.substr(start));
      break;
    }
    out.push_back(s.substr(start, end - start));
    start = end + 1;
  }
  return out;
}

/// `min` guards the fields to_spec() applies only when set: a value below
/// it would otherwise run the default configuration silently.
int parse_int(const std::string& s, const char* field,
              int min = std::numeric_limits<int>::min()) {
  int v = 0;
  try {
    std::size_t used = 0;
    v = std::stoi(s, &used);
    if (used != s.size()) throw std::invalid_argument(s);
  } catch (const std::exception&) {
    throw std::invalid_argument(std::string("repro: bad integer for ") +
                                field + ": '" + s + "'");
  }
  if (v >= min) return v;
  throw std::invalid_argument(std::string("repro: ") + field + " must be >= " +
                              std::to_string(min) + ", got '" + s + "'");
}

double parse_double(const std::string& s, const char* field) {
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end == nullptr || *end != '\0' || end == s.c_str()) {
    throw std::invalid_argument(std::string("repro: bad number for ") +
                                field + ": '" + s + "'");
  }
  return v;
}

}  // namespace

const char* scheme_token(core::Scheme s) {
  switch (s) {
    case core::Scheme::kNone:
      return "ds";
    case core::Scheme::kCoordinated:
      return "co";
    case core::Scheme::kUncoordinated:
      return "un";
    case core::Scheme::kIndividual:
      return "in";
    case core::Scheme::kHybrid:
      return "hy";
  }
  throw std::invalid_argument("unknown scheme");
}

core::Scheme parse_scheme_token(const std::string& token) {
  for (core::Scheme s : kAllSchemes) {
    if (token == scheme_token(s)) return s;
  }
  throw std::invalid_argument("unknown scheme token '" + token +
                              "' (want ds|co|un|in|hy)");
}

core::WorkflowSpec Schedule::to_spec() const {
  core::WorkflowSpec spec =
      core::table2_setup(scheme, 1.0, sim_period, analytic_period);
  spec.total_ts = total_ts;
  spec.server.policy = resilience_for(resilience);
  if (memory_budget_mb > 0) {
    spec.staging.memory_budget =
        static_cast<std::uint64_t>(memory_budget_mb) << 20;
  }
  if (staging_servers > 0) spec.staging_servers = staging_servers;
  if (ckpt_group > 0) spec.ckpt.xor_group = ckpt_group;
  if (tenants > 1) {
    spec.tenancy.tenants = tenants;
    // Fair-share QoS only means something with the governor armed; equal
    // weights are filled in by expand_tenants().
    spec.tenancy.fair_share = memory_budget_mb > 0;
  }
  spec.wlog.codec = codec;
  spec.failures.seed = static_cast<std::uint64_t>(id) + 1;
  for (const ScheduleFailure& f : failures) {
    spec.failures.explicit_failures.push_back(
        core::ExplicitFailure{f.comp, f.ts, f.phase, f.node_level,
                              f.predicted});
  }
  if (!elastic.empty()) {
    // One standby per join keeps every event sequence admissible; the
    // group manager picks the concrete server (lowest standby / highest
    // active), so events carry no server id.
    int joins = 0;
    for (const ElasticScheduleEvent& e : elastic) joins += e.join ? 1 : 0;
    spec.elastic.standby_servers = joins;
    for (const ElasticScheduleEvent& e : elastic) {
      spec.elastic.events.push_back(core::ElasticEvent{e.ts, e.join, -1});
    }
  }
  return spec;
}

std::string Schedule::repro() const {
  std::string out = "cc1";
  char buf[128];
  std::snprintf(buf, sizeof(buf), ";id=%d;sch=%s;ts=%d;sp=%d;ap=%d"
                ";res=%d;mtbf=%d",
                id, scheme_token(scheme), total_ts, sim_period,
                analytic_period, resilience, mtbf ? 1 : 0);
  out += buf;
  // Emitted only when set, so pre-governor repro strings stay stable.
  if (memory_budget_mb > 0) {
    std::snprintf(buf, sizeof(buf), ";mb=%d", memory_budget_mb);
    out += buf;
  }
  if (staging_servers > 0) {
    std::snprintf(buf, sizeof(buf), ";ss=%d", staging_servers);
    out += buf;
  }
  // Emitted only when non-empty, so fixed-group repro strings stay stable.
  if (!elastic.empty()) {
    out += ";elastic=";
    for (std::size_t i = 0; i < elastic.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%s%c%d", i > 0 ? "," : "",
                    elastic[i].join ? 'j' : 'r', elastic[i].ts);
      out += buf;
    }
  }
  // Emitted only when set, so hierarchy-off repro strings stay stable.
  if (ckpt_group > 0) {
    std::snprintf(buf, sizeof(buf), ";ckpt=%d", ckpt_group);
    out += buf;
  }
  // Emitted only when > 1, so single-tenant repro strings stay stable.
  if (tenants > 1) {
    std::snprintf(buf, sizeof(buf), ";tenants=%d", tenants);
    out += buf;
  }
  // Emitted only when armed, so codec-off repro strings stay stable.
  if (codec != wlog::codec::Scheme::kNone) {
    out += ";codec=";
    out += wlog::codec::scheme_name(codec);
  }
  for (const ScheduleFailure& f : failures) {
    std::string flags;
    if (f.phase < 0) flags += 'a';
    if (f.node_level) flags += 'n';
    if (f.predicted) flags += 'p';
    // %.17g round-trips any double exactly; alarms serialize phase as 0.
    std::snprintf(buf, sizeof(buf), ";f=%d:%d:%.17g:%s", f.comp, f.ts,
                  f.phase < 0 ? 0.0 : f.phase, flags.c_str());
    out += buf;
  }
  return out;
}

Schedule Schedule::parse(const std::string& repro) {
  const auto fields = split(repro, ';');
  if (fields.empty() || fields[0] != "cc1") {
    throw std::invalid_argument("repro: expected 'cc1' version prefix");
  }
  Schedule s;
  for (std::size_t i = 1; i < fields.size(); ++i) {
    const std::string& field = fields[i];
    const std::size_t eq = field.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("repro: malformed field '" + field + "'");
    }
    const std::string key = field.substr(0, eq);
    const std::string val = field.substr(eq + 1);
    if (key == "id") {
      s.id = parse_int(val, "id");
    } else if (key == "sch") {
      s.scheme = parse_scheme_token(val);
    } else if (key == "ts") {
      s.total_ts = parse_int(val, "ts");
    } else if (key == "sp") {
      s.sim_period = parse_int(val, "sp");
    } else if (key == "ap") {
      s.analytic_period = parse_int(val, "ap");
    } else if (key == "lp") {
      // The retired node-local checkpoint period: `lp=0` means what its
      // absence does; the hierarchy's cache is now the only node-local
      // level.
      if (parse_int(val, "lp", 0) != 0) {
        throw std::invalid_argument(
            "repro: lp=" + val + " is retired (node-local checkpoints are "
            "the checkpoint hierarchy's cache); use ckpt=<group>");
      }
    } else if (key == "res") {
      s.resilience = parse_int(val, "res");
    } else if (key == "mtbf") {
      s.mtbf = parse_int(val, "mtbf") != 0;
    } else if (key == "mb") {
      s.memory_budget_mb = parse_int(val, "mb", 0);
    } else if (key == "ss") {
      s.staging_servers = parse_int(val, "ss", 0);
    } else if (key == "ckpt") {
      s.ckpt_group = parse_int(val, "ckpt", 0);
    } else if (key == "tenants") {
      s.tenants = parse_int(val, "tenants", 1);
    } else if (key == "codec") {
      const auto scheme = wlog::codec::parse_scheme(val);
      if (!scheme) {
        throw std::invalid_argument(
            "repro: unknown codec '" + val +
            "' (want none|lz|delta|delta_lz)");
      }
      s.codec = *scheme;
    } else if (key == "elastic") {
      for (const std::string& tok : split(val, ',')) {
        if (tok.size() < 2 || (tok[0] != 'j' && tok[0] != 'r')) {
          throw std::invalid_argument(
              "repro: elastic event wants j<ts> or r<ts>, got '" + tok + "'");
        }
        ElasticScheduleEvent e;
        e.join = tok[0] == 'j';
        e.ts = parse_int(tok.substr(1), "elastic ts");
        s.elastic.push_back(e);
      }
    } else if (key == "f") {
      const auto parts = split(val, ':');
      if (parts.size() != 4) {
        throw std::invalid_argument("repro: failure wants comp:ts:phase:flags"
                                    ", got '" + val + "'");
      }
      ScheduleFailure f;
      f.comp = parse_int(parts[0], "failure comp");
      f.ts = parse_int(parts[1], "failure ts");
      f.phase = parse_double(parts[2], "failure phase");
      for (char c : parts[3]) {
        switch (c) {
          case 'a':
            f.phase = -1.0;  // false alarm: predictor fires, nothing dies
            break;
          case 'n':
            f.node_level = true;
            break;
          case 'p':
            f.predicted = true;
            break;
          default:
            throw std::invalid_argument(
                std::string("repro: unknown failure flag '") + c + "'");
        }
      }
      s.failures.push_back(f);
    } else {
      throw std::invalid_argument("repro: unknown key '" + key + "'");
    }
  }
  return s;
}

std::vector<Schedule> generate_schedules(const GenerateOptions& opts) {
  std::vector<core::Scheme> pool = opts.schemes;
  if (pool.empty()) {
    pool.assign(std::begin(kAllSchemes), std::end(kAllSchemes));
  }
  // Victim weights follow the Table-II core counts: failures hit the
  // 256-core simulation four times as often as the 64-core analytic.
  const std::vector<double> weights = {256.0, 64.0};

  std::vector<Schedule> out;
  out.reserve(static_cast<std::size_t>(std::max(0, opts.count)));
  const Rng root(opts.seed);
  for (int i = 0; i < opts.count; ++i) {
    Rng rng = root.fork(static_cast<std::uint64_t>(i) + 1);
    Schedule s;
    s.id = i;
    s.scheme = pool[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(pool.size()) - 1))];
    s.total_ts = opts.total_ts;
    s.sim_period = rng.uniform_int(2, 4);
    s.analytic_period = rng.uniform_int(2, 5);
    // The retired node-local period's draw: still consumed, so every
    // other field of every schedule stays what it was.
    (void)rng.next_double();
    s.resilience = rng.uniform_int(0, kResilienceKinds - 1);
    s.mtbf = rng.next_double() < 0.5;
    s.memory_budget_mb = opts.memory_budget_mb;
    s.tenants = opts.tenants;  // no rng draw: schedules replay 1:1
    s.codec = opts.codec;      // no rng draw: schedules replay 1:1
    if (opts.codec_mix) {
      s.codec = static_cast<wlog::codec::Scheme>((i % 3) + 1);
    }

    auto draw_flags = [&](ScheduleFailure& f) {
      f.node_level = rng.next_double() < 0.3;
      f.predicted = rng.next_double() < 0.25;
      // Some predicted entries are false alarms (emergency checkpoint
      // taken, no failure follows) — the predictor's precision cost.
      if (f.predicted && rng.next_double() < 0.2) f.phase = -1.0;
    };
    if (s.mtbf) {
      // Exponential inter-arrivals over the timestep horizon, scaled so
      // the expected count matches the uniform mode's mean.
      const double window = static_cast<double>(s.total_ts);
      const double mean = window / std::max(1, opts.max_failures);
      double t = 0;
      while (static_cast<int>(s.failures.size()) < opts.max_failures) {
        t += rng.exponential(mean);
        if (t >= window) break;
        ScheduleFailure f;
        f.comp = rng.weighted_pick(weights);
        f.ts = std::min(s.total_ts, 1 + static_cast<int>(t));
        f.phase = t - std::floor(t);
        draw_flags(f);
        s.failures.push_back(f);
      }
    } else {
      const int count = rng.uniform_int(0, opts.max_failures);
      for (int j = 0; j < count; ++j) {
        ScheduleFailure f;
        f.comp = rng.weighted_pick(weights);
        f.ts = rng.uniform_int(1, s.total_ts);
        f.phase = rng.next_double();
        draw_flags(f);
        s.failures.push_back(f);
      }
    }
    // An elastic episode: one standby joins mid-run and one server retires
    // later. Drawn last so fixed-group schedules consume the same random
    // stream as before this field existed.
    if (opts.elastic_probability > 0 &&
        rng.next_double() < opts.elastic_probability && s.total_ts >= 3) {
      const int join_ts = rng.uniform_int(2, s.total_ts - 1);
      const int retire_ts = rng.uniform_int(join_ts + 1, s.total_ts);
      s.elastic.push_back(ElasticScheduleEvent{join_ts, true});
      s.elastic.push_back(ElasticScheduleEvent{retire_ts, false});
      // Aim the first failure into the join's resilver window, so the
      // campaign exercises crashes *during* a membership rebuild.
      if (!s.failures.empty()) s.failures.front().ts = join_ts;
    }
    // Multi-level checkpoint hierarchy. Drawn after the elastic episode —
    // i.e. last — so hierarchy-off schedules consume the same random
    // stream as before this field existed.
    if (opts.ckpt_probability > 0 &&
        rng.next_double() < opts.ckpt_probability) {
      s.ckpt_group = rng.uniform_int(2, 4);
    }
    out.push_back(std::move(s));
  }
  return out;
}

}  // namespace dstage::check
