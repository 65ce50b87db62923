// dstage_cli — run any workflow configuration from the command line and
// print the metrics the paper's evaluation reports; optionally export the
// structured execution trace as CSV, the metrics as JSON, or a whole
// multi-seed sweep.
//
//   dstage_cli --scheme=un --failures=1 --seed=6
//   dstage_cli --setup=table3 --scale=2 --scheme=co --failures=3
//   dstage_cli --scheme=un --failures=2 --trace=run.csv
//              --predictor-recall=1.0
//   dstage_cli --scheme=hy --failures=2 --seeds=16 --json=sweep.json
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>

#include "core/executor.hpp"
#include "core/setups.hpp"
#include "core/sweep.hpp"
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

int usage() {
  std::puts(
      "usage: dstage_cli [options]\n"
      "  --setup=table2|table3       experiment preset        [table2]\n"
      "  --scale=0..4                table3 scale index       [0]\n"
      "  --scheme=ds|co|un|in|hy     fault-tolerance scheme   [un]\n"
      "  --failures=N                injected failures        [0]\n"
      "  --seed=N                    failure seed             [1]\n"
      "  --seeds=N                   sweep seeds 1..N instead [off]\n"
      "  --threads=N                 sweep worker threads     [auto]\n"
      "  --timesteps=N               run length               [40]\n"
      "  --subset=F                  coupled fraction (0,1]   [1.0]\n"
      "  --sim-period=N              sim ckpt period          [4]\n"
      "  --analytic-period=N         analytic ckpt period     [5]\n"
      "  --predictor-recall=F        proactive ckpt recall    [0=off]\n"
      "  --node-failure-fraction=F   node-level failure share [0.2]\n"
      "  --trace=FILE                write execution trace CSV\n"
      "  --json=FILE                 write metrics/sweep JSON\n"
      "  --help                      this text");
  return 2;
}

bool write_json(const std::string& path, const Json& doc) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return false;
  }
  doc.dump(out);
  std::printf("JSON written to %s\n", path.c_str());
  return true;
}

}  // namespace

int run_cli(int argc, char** argv);

int main(int argc, char** argv) {
  try {
    return run_cli(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}

int run_cli(int argc, char** argv) {
  Flags flags(argc, argv);
  if (flags.get_bool("help", false)) return usage();

  core::WorkflowSpec spec;
  const std::string setup = flags.get("setup", "table2");
  const core::Scheme scheme = parse_scheme(flags.get("scheme", "un"));
  if (setup == "table2") {
    spec = core::table2_setup(scheme, flags.get_double("subset", 1.0),
                              flags.get_int("sim-period", 4),
                              flags.get_int("analytic-period", 5));
  } else if (setup == "table3") {
    spec = core::table3_setup(scheme, flags.get_int("scale", 0),
                              flags.get_int("failures", 0));
  } else {
    std::fprintf(stderr, "unknown setup '%s'\n", setup.c_str());
    return usage();
  }
  spec.total_ts = flags.get_int("timesteps", spec.total_ts);
  spec.failures.count = flags.get_int("failures", spec.failures.count);
  spec.failures.seed =
      static_cast<std::uint64_t>(flags.get_int("seed", 1));
  spec.failures.node_failure_fraction =
      flags.get_double("node-failure-fraction", 0.2);
  spec.failures.predictor_recall = flags.get_double("predictor-recall", 0);
  const std::string trace_file = flags.get("trace", "");
  const std::string json_file = flags.get("json", "");
  const int seeds = flags.get_int("seeds", 0);
  const int threads = flags.get_int("threads", 0);

  for (const auto& unknown : flags.unused()) {
    std::fprintf(stderr, "unknown flag --%s\n", unknown.c_str());
    return usage();
  }

  if (seeds > 0) {
    // Multi-seed sweep: one independent simulation per seed, in parallel.
    std::vector<core::WorkflowSpec> specs;
    specs.reserve(static_cast<std::size_t>(seeds));
    for (int s = 1; s <= seeds; ++s) {
      core::WorkflowSpec one = spec;
      one.failures.seed = static_cast<std::uint64_t>(s);
      specs.push_back(std::move(one));
    }
    core::SweepOptions opts;
    opts.threads = threads;
    const auto runs = core::run_sweep(std::move(specs), opts);

    std::printf("scheme %s | %d ts | sweep of %d seeds\n",
                core::scheme_name(scheme), spec.total_ts, seeds);
    int anomalies = 0;
    for (const auto& r : runs) {
      anomalies += r.metrics.total_anomalies();
      std::printf(
          "  seed %3llu: total %8.2f s | %d failure(s) | %d anomalies | "
          "digest %s\n",
          static_cast<unsigned long long>(r.seed), r.metrics.total_time_s,
          r.metrics.failures_injected, r.metrics.total_anomalies(),
          core::digest_hex(r.trace_digest).c_str());
    }
    std::printf("mean total workflow execution time: %.2f s (virtual)\n",
                core::mean_total_time(runs));
    if (!json_file.empty() && !write_json(json_file, sweep_to_json(runs))) {
      return 1;
    }
    return anomalies == 0 ? 0 : 1;
  }

  core::WorkflowRunner runner(spec);
  core::RunMetrics m = runner.run();

  std::printf("scheme %s | %d ts | %d failure(s) injected | seed %llu\n",
              core::scheme_name(m.scheme), spec.total_ts,
              m.failures_injected,
              static_cast<unsigned long long>(spec.failures.seed));
  std::printf("total workflow execution time: %.2f s (virtual)\n",
              m.total_time_s);
  for (const auto& c : m.components) {
    std::printf(
        "  %-12s done %8.2f s | ckpt %d pfs / %d local / %d proactive | "
        "%d failures | %d ts reworked | put %6.3f s cum\n",
        c.name.c_str(), c.completion_time_s, c.checkpoints,
        c.local_checkpoints, c.proactive_checkpoints, c.failures,
        c.timesteps_reworked, c.cum_put_response_s);
  }
  std::printf(
      "staging: %llu puts (%llu suppressed) | %llu gets (%llu from log) | "
      "mem mean %s | anomalies %d\n",
      static_cast<unsigned long long>(m.staging.puts),
      static_cast<unsigned long long>(m.staging.puts_suppressed),
      static_cast<unsigned long long>(m.staging.gets),
      static_cast<unsigned long long>(m.staging.gets_from_log),
      format_bytes(static_cast<std::uint64_t>(m.staging.total_bytes_mean))
          .c_str(),
      m.total_anomalies());
  std::printf("pfs: wrote %s, read %s | fabric msgs: %llu | DES events: "
              "%llu | trace: %zu records (digest %016llx)\n",
              format_bytes(m.pfs_bytes_written).c_str(),
              format_bytes(m.pfs_bytes_read).c_str(),
              static_cast<unsigned long long>(m.fabric_packets),
              static_cast<unsigned long long>(m.events_processed),
              runner.trace().size(),
              static_cast<unsigned long long>(runner.trace().digest()));

  if (!trace_file.empty()) {
    std::ofstream out(trace_file);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", trace_file.c_str());
      return 1;
    }
    runner.trace().write_csv(out);
    std::printf("trace written to %s\n", trace_file.c_str());
  }
  if (!json_file.empty()) {
    Json doc = core::metrics_to_json(m);
    doc.set("trace_digest", core::digest_hex(runner.trace().digest()));
    doc.set("seed", spec.failures.seed);
    if (!write_json(json_file, doc)) return 1;
  }
  return m.total_anomalies() == 0 ? 0 : 1;
}
