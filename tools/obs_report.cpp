// obs_report — run one instrumented workflow and print the Fig. 9(e)-style
// per-phase execution-time breakdown plus the causal critical path of every
// recovery, from the observability span stream. Optionally export the span
// stream as Chrome trace-event JSON (load in Perfetto / chrome://tracing)
// and the breakdown as a JSON document.
//
//   obs_report --scheme=co --failures=1 --seed=3
//   obs_report --scheme=hy --failures=2 --trace-json=run.trace.json
//   obs_report --validate=run.trace.json        # CI: exit 1 if malformed
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <utility>

#include "core/executor.hpp"
#include "core/setups.hpp"
#include "core/sweep.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/report.hpp"
#include "staging/tenant.hpp"
#include "util/flags.hpp"
#include "util/json.hpp"

namespace {

using namespace dstage;

core::Scheme parse_scheme(const std::string& name) {
  if (name == "ds" || name == "none") return core::Scheme::kNone;
  if (name == "co") return core::Scheme::kCoordinated;
  if (name == "un") return core::Scheme::kUncoordinated;
  if (name == "in") return core::Scheme::kIndividual;
  if (name == "hy") return core::Scheme::kHybrid;
  throw std::invalid_argument("unknown scheme '" + name +
                              "' (expected ds|co|un|in|hy)");
}

// The tenant a span track belongs to, parsed from the expand_tenants()
// "@t<N>" name suffix. Tracks without a suffix — tenant 0's components and
// shared infrastructure (staging servers, spill gateway) — land in bucket
// 0, which the rollup labels accordingly.
int track_tenant(const std::string& track) {
  const std::size_t at = track.rfind("@t");
  if (at == std::string::npos) return 0;
  return std::atoi(track.c_str() + at + 2);
}

// Collapse the per-track breakdown into one synthetic track per tenant, so
// print_breakdown() renders a per-tenant phase table. Totals are summed
// across the tenant's tracks (a rollup of attributed time, not a wall
// clock).
obs::Breakdown by_tenant_rollup(const obs::Breakdown& b) {
  obs::Breakdown out;
  out.span_horizon_ns = b.span_horizon_ns;
  std::map<int, obs::TrackBreakdown> buckets;
  for (const auto& t : b.tracks) {
    const int tenant = track_tenant(t.track);
    auto& bucket = buckets[tenant];
    bucket.track = tenant == 0 ? "tenant 0 (+shared)"
                               : "tenant " + std::to_string(tenant);
    for (std::size_t p = 0; p < obs::kPhaseCount; ++p)
      bucket.phase_ns[p] += t.phase_ns[p];
    bucket.total_ns += t.total_ns;
  }
  for (auto& [tenant, bucket] : buckets) out.tracks.push_back(bucket);
  return out;
}

int usage() {
  std::puts(
      "usage: obs_report [options]\n"
      "  --setup=table2|table3       experiment preset        [table2]\n"
      "  --scale=0..4                table3 scale index       [0]\n"
      "  --scheme=ds|co|un|in|hy     fault-tolerance scheme   [co]\n"
      "  --failures=N                injected failures        [1]\n"
      "  --seed=N                    failure seed             [1]\n"
      "  --timesteps=N               run length               [40]\n"
      "  --tenants=N                 co-located workflow copies [1]\n"
      "  --by-tenant                 roll the phase breakdown up per tenant\n"
      "  --trace-json=FILE           export Chrome trace-event JSON\n"
      "  --json=FILE                 export breakdown + metrics JSON\n"
      "  --validate=FILE             validate an exported trace instead\n"
      "  --help                      this text");
  return 2;
}

int run_validate(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const obs::TraceValidation v = obs::validate_chrome_trace(buf.str());
  if (!v.ok) {
    std::fprintf(stderr, "%s: INVALID (%zu events)\n", path.c_str(),
                 v.events);
    for (const auto& e : v.errors) {
      std::fprintf(stderr, "  %s\n", e.c_str());
    }
    return 1;
  }
  std::printf("%s: OK (%zu events)\n", path.c_str(), v.events);
  return 0;
}

}  // namespace

int run_report(int argc, char** argv);

int main(int argc, char** argv) {
  try {
    return run_report(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}

int run_report(int argc, char** argv) {
  Flags flags(argc, argv);
  if (flags.get_bool("help", false)) return usage();

  const std::string validate_file = flags.get("validate", "");
  if (!validate_file.empty()) {
    for (const auto& unknown : flags.unused()) {
      std::fprintf(stderr, "unknown flag --%s\n", unknown.c_str());
      return usage();
    }
    return run_validate(validate_file);
  }

  core::WorkflowSpec spec;
  const std::string setup = flags.get("setup", "table2");
  const core::Scheme scheme = parse_scheme(flags.get("scheme", "co"));
  if (setup == "table2") {
    spec = core::table2_setup(scheme);
  } else if (setup == "table3") {
    spec = core::table3_setup(scheme, flags.get_int("scale", 0), 0);
  } else {
    std::fprintf(stderr, "unknown setup '%s'\n", setup.c_str());
    return usage();
  }
  spec.total_ts = flags.get_int("timesteps", spec.total_ts);
  spec.failures.count = flags.get_int("failures", 1);
  spec.failures.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  spec.tenancy.tenants = flags.get_int("tenants", 1);
  if (spec.tenancy.tenants < 1) {
    std::fprintf(stderr, "--tenants must be >= 1\n");
    return usage();
  }
  const bool by_tenant = flags.get_bool("by-tenant", false);
  spec.obs.enabled = true;
  const std::string trace_file = flags.get("trace-json", "");
  const std::string json_file = flags.get("json", "");

  for (const auto& unknown : flags.unused()) {
    std::fprintf(stderr, "unknown flag --%s\n", unknown.c_str());
    return usage();
  }

  core::WorkflowRunner runner(spec);
  const core::RunMetrics m = runner.run();
  // spec.obs.enabled is forced on above, so the span/metrics sinks exist.
  const obs::Observability& obs = *runner.runtime().obs();

  std::printf("scheme %s | %d ts | %d failure(s) injected | seed %llu | "
              "total %.2f s (virtual)\n",
              core::scheme_name(m.scheme), spec.total_ts, m.failures_injected,
              static_cast<unsigned long long>(spec.failures.seed),
              m.total_time_s);

  const obs::Breakdown breakdown = obs::phase_breakdown(obs.tracer());
  if (breakdown.tracks.empty()) {
    // An empty section is a trap to debug: say why it can be empty rather
    // than printing a headline over nothing.
    std::fprintf(stderr,
                 "obs_report: WARNING: no spans matched the breakdown — the "
                 "span stream is empty. Spans are only emitted when the obs "
                 "gate is on (spec.obs.enabled, forced on by this tool).\n");
  } else {
    std::printf("\nExecution-time breakdown (virtual seconds per phase):\n\n");
    print_breakdown(std::cout, breakdown);
  }

  obs::Breakdown tenant_rollup;
  if (by_tenant) {
    tenant_rollup = by_tenant_rollup(breakdown);
    std::printf("\nPer-tenant rollup (attributed virtual seconds; tenant 0 "
                "includes shared staging infrastructure):\n\n");
    print_breakdown(std::cout, tenant_rollup);
    if (!m.staging.tenant_store_bytes_peak.empty()) {
      std::printf("\nPer-tenant staging store peak:\n");
      for (const auto& [tenant, peak] : m.staging.tenant_store_bytes_peak) {
        std::printf("  tenant %-3d %8.1f MB\n", tenant,
                    static_cast<double>(peak) / (1024.0 * 1024.0));
      }
    }
  }

  // Self-check: the integer-ns sweep attributes every nanosecond, so each
  // track's phase columns must sum to its total (acceptance bound 1e-9 s).
  for (const auto& t : breakdown.tracks) {
    const double gap_s = std::abs(static_cast<double>(t.attributed_ns()) -
                                  static_cast<double>(t.total_ns)) *
                         1e-9;
    if (gap_s > 1e-9) {
      std::fprintf(stderr,
                   "obs_report: phase sum mismatch on track %s (%.3e s)\n",
                   t.track.c_str(), gap_s);
      return 1;
    }
  }

  const auto recoveries = obs::recovery_paths(obs.tracer());
  if (recoveries.empty()) {
    if (m.failures_injected > 0) {
      std::fprintf(stderr,
                   "obs_report: WARNING: %d failure(s) injected but no "
                   "\"recovery\" spans matched — the recovery section is "
                   "empty. Check that the obs gate (spec.obs.enabled) was on "
                   "when the recovery pipeline ran.\n",
                   m.failures_injected);
    } else {
      std::printf("\nno recoveries (failure-free run)\n");
    }
  } else {
    std::printf("\nRecovery critical paths (%zu recover%s):\n\n",
                recoveries.size(), recoveries.size() == 1 ? "y" : "ies");
    for (const auto& root : recoveries) {
      print_recovery_tree(std::cout, root);
      std::printf("\n");
    }
  }

  if (!trace_file.empty()) {
    const Json doc = obs::chrome_trace_json(obs.tracer());
    const std::string text = doc.str();
    // Never ship a trace the independent validator rejects.
    const obs::TraceValidation v = obs::validate_chrome_trace(text);
    if (!v.ok) {
      std::fprintf(stderr, "exported trace failed validation:\n");
      for (const auto& e : v.errors) {
        std::fprintf(stderr, "  %s\n", e.c_str());
      }
      return 1;
    }
    std::ofstream out(trace_file);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", trace_file.c_str());
      return 1;
    }
    out << text;
    std::printf("Chrome trace (%zu events) written to %s — open in "
                "https://ui.perfetto.dev\n",
                v.events, trace_file.c_str());
  }

  if (!json_file.empty()) {
    Json doc = Json::object();
    doc.set("run", core::metrics_to_json(m));
    doc.set("phases", obs::breakdown_to_json(breakdown));
    if (by_tenant)
      doc.set("phases_by_tenant", obs::breakdown_to_json(tenant_rollup));
    doc.set("metrics", obs.metrics().to_json());
    std::ofstream out(json_file);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", json_file.c_str());
      return 1;
    }
    doc.dump(out);
    std::printf("breakdown JSON written to %s\n", json_file.c_str());
  }
  return m.total_anomalies() == 0 ? 0 : 1;
}
