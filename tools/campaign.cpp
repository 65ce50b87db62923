// campaign — randomized crash-consistency campaigns over the staging
// runtime. Generates failure schedules, runs each under the consistency
// oracle (seven machine-checked invariants against a failure-free
// reference run), and shrinks anything that fails into a minimal
// reproducer printed as a re-runnable --repro flag. --require names
// counters from check/counters.hpp that must end the campaign nonzero.
//
//   campaign --schedules=500 --all-schemes            # the acceptance run
//   campaign --schedules=50 --schemes=un,hy --seed=7
//   campaign --memory-budget=384 --require=governor.spill_versions
//   campaign --break=skip-replay --expect-fail        # oracle self-test
//   campaign --repro='cc1;id=3;sch=un;ts=12;...'      # replay one schedule
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "check/campaign.hpp"
#include "check/counters.hpp"
#include "check/forensics.hpp"
#include "check/oracle.hpp"
#include "check/schedule.hpp"
#include "check/shrink.hpp"
#include "util/flags.hpp"
#include "wlog/codec.hpp"

namespace {

using namespace dstage;

int usage() {
  std::puts(
      "usage: campaign [options]\n"
      "  --schedules=N       randomized schedules to run        [100]\n"
      "  --seed=N            campaign seed                      [1]\n"
      "  --all-schemes       draw from ds,co,un,in,hy (default)\n"
      "  --schemes=a,b,..    restrict to these schemes\n"
      "  --timesteps=N       timesteps per schedule             [12]\n"
      "  --max-failures=N    failures per schedule, at most     [3]\n"
      "  --threads=N         worker threads                     [auto]\n"
      "  --memory-budget=MB  per-server staging memory budget   [0 = off]\n"
      "  --elastic=P         fraction of schedules with a join/retire\n"
      "                      episode (first failure aimed into the\n"
      "                      resilver window)                    [0 = off]\n"
      "  --ckpt-levels=P     fraction of schedules running the multi-level\n"
      "                      checkpoint hierarchy (XOR group from {2,3,4})\n"
      "                                                         [0 = off]\n"
      "  --tenants=N         co-located tenants per schedule; failures\n"
      "                      target tenant 0, the rest are bystanders\n"
      "                      checked bit-for-bit vs solo runs     [1]\n"
      "  --codec=MODE        write-log payload codec armed on every\n"
      "                      schedule: none|lz|delta|delta_lz, or mix to\n"
      "                      cycle schedules through all three     [none]\n"
      "  --require=a,b,..    fail unless every named campaign counter\n"
      "                      (e.g. ckpt.cache_restarts) totals > 0; an\n"
      "                      unknown name lists them all\n"
      "  --break=MODE        none|skip-replay|gc-overcollect    [none]\n"
      "  --expect-fail       exit 0 iff >= 1 schedule violated an invariant\n"
      "  --forensics=DIR     write a forensic bundle (JSON) per failing\n"
      "                      schedule for tools/forensics; on an\n"
      "                      --expect-fail mismatch, capture one anyway\n"
      "  --no-shrink         keep failing schedules unminimized\n"
      "  --shrink-budget=N   oracle runs per shrink             [120]\n"
      "  --repro=SPEC        run one schedule from a repro string and exit\n"
      "  --help              this text");
  return 2;
}

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const std::size_t end = csv.find(',', start);
    const std::string token =
        end == std::string::npos ? csv.substr(start)
                                 : csv.substr(start, end - start);
    if (!token.empty()) out.push_back(token);
    if (end == std::string::npos) break;
    start = end + 1;
  }
  return out;
}

void print_report(const check::Schedule& schedule,
                  const check::OracleReport& report) {
  std::printf("schedule %d [%s]: %s (%d failure%s injected",
              schedule.id, check::scheme_token(schedule.scheme),
              report.ok() ? "PASS" : "FAIL", report.failures_injected,
              report.failures_injected == 1 ? "" : "s");
  if (report.alarms_fired > 0) {
    std::printf(", %d false alarm%s", report.alarms_fired,
                report.alarms_fired == 1 ? "" : "s");
  }
  std::printf(")\n");
  if (!report.ok()) std::fputs(report.summary().c_str(), stdout);
}

/// Write one forensic bundle under `dir` (created on demand). Returns
/// false (with a note on stderr) if the filesystem refuses.
bool write_bundle(const std::string& dir, const std::string& name,
                  const check::ForensicBundle& bundle) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const std::string path = dir + "/" + name;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "forensics: cannot write %s\n", path.c_str());
    return false;
  }
  out << check::bundle_to_json(bundle) << '\n';
  std::printf("forensics: wrote %s (%s)\n", path.c_str(),
              bundle.trigger.c_str());
  return true;
}

int run_repro(const std::string& spec, check::Sabotage sabotage,
              const std::string& forensics_dir) {
  const check::Schedule schedule = check::Schedule::parse(spec);
  check::ReferenceCache cache;
  const check::OracleReport report =
      check::check_schedule(schedule, cache, sabotage);
  print_report(schedule, report);
  if (!forensics_dir.empty() && report.bundle != nullptr) {
    write_bundle(forensics_dir,
                 "bundle-repro-" + std::to_string(schedule.id) + ".json",
                 *report.bundle);
  }
  return report.ok() ? 0 : 1;
}

}  // namespace

int run_cli(int argc, char** argv) {
  Flags flags(argc, argv);
  if (flags.get_bool("help", false)) return usage();

  check::CampaignOptions opts;
  opts.gen.count = flags.get_int("schedules", 100);
  opts.gen.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  opts.gen.total_ts = flags.get_int("timesteps", 12);
  opts.gen.max_failures = flags.get_int("max-failures", 3);
  opts.gen.memory_budget_mb = flags.get_int("memory-budget", 0);
  if (opts.gen.memory_budget_mb < 0) {
    std::fputs("--memory-budget must be >= 0 (0 disables the governor)\n",
               stderr);
    return usage();
  }
  opts.gen.elastic_probability = flags.get_double("elastic", 0.0);
  if (!(opts.gen.elastic_probability >= 0) ||
      !(opts.gen.elastic_probability <= 1)) {
    std::fputs("--elastic must be in [0, 1]\n", stderr);
    return usage();
  }
  opts.gen.ckpt_probability = flags.get_double("ckpt-levels", 0.0);
  if (!(opts.gen.ckpt_probability >= 0) ||
      !(opts.gen.ckpt_probability <= 1)) {
    std::fputs("--ckpt-levels must be in [0, 1]\n", stderr);
    return usage();
  }
  opts.gen.tenants = flags.get_int("tenants", 1);
  if (opts.gen.tenants < 1) {
    std::fputs("--tenants must be >= 1\n", stderr);
    return usage();
  }
  const std::string codec_mode = flags.get("codec", "none");
  if (codec_mode == "mix") {
    opts.gen.codec_mix = true;
  } else if (const auto scheme = wlog::codec::parse_scheme(codec_mode)) {
    opts.gen.codec = *scheme;
  } else {
    std::fputs("--codec must be none|lz|delta|delta_lz|mix\n", stderr);
    return usage();
  }
  opts.threads = flags.get_int("threads", 0);
  opts.sabotage = check::parse_sabotage(flags.get("break", "none"));
  opts.shrink = !flags.get_bool("no-shrink", false);
  opts.shrink_budget = flags.get_int("shrink-budget", 120);
  (void)flags.get_bool("all-schemes", true);  // the default; accepted for clarity
  for (const std::string& token : split_csv(flags.get("schemes", ""))) {
    opts.gen.schemes.push_back(check::parse_scheme_token(token));
  }
  const bool expect_fail = flags.get_bool("expect-fail", false);
  const std::vector<std::string> required =
      split_csv(flags.get("require", ""));
  for (const std::string& name : required) {
    if (check::find_counter(name) != nullptr) continue;
    std::string valid;
    for (const check::Counter& counter : check::counters()) {
      if (!valid.empty()) valid += ", ";
      valid += counter.name;
    }
    std::fprintf(stderr, "--require: unknown counter '%s' (valid: %s)\n",
                 name.c_str(), valid.c_str());
    return usage();
  }
  const std::string repro = flags.get("repro", "");
  const std::string forensics_dir = flags.get("forensics", "");

  for (const std::string& flag : flags.unused()) {
    std::fprintf(stderr, "unknown flag --%s\n", flag.c_str());
    return usage();
  }

  if (!repro.empty()) return run_repro(repro, opts.sabotage, forensics_dir);

  const check::CampaignResult result = check::run_campaign(opts);
  const auto total = [&result](const std::string& name) {
    return static_cast<unsigned long long>(result.totals.at(name));
  };
  std::printf("campaign: %d/%d schedules passed, %d invariant violation%s "
              "(%llu failures injected, sabotage=%s)\n",
              result.passed, result.schedules,
              static_cast<int>(result.failures.size()),
              result.failures.size() == 1 ? "" : "s",
              total("core.failures_injected"),
              check::sabotage_name(opts.sabotage));
  if (opts.gen.memory_budget_mb > 0) {
    std::printf("memory governor (%d MB/server): %llu versions spilled, "
                "%llu faulted back, %llu puts bounced, %llu backpressure "
                "waits\n",
                opts.gen.memory_budget_mb, total("governor.spill_versions"),
                total("governor.spill_fetches"),
                total("governor.puts_rejected"),
                total("rpc.backpressure_waits"));
  }
  if (opts.gen.elastic_probability > 0) {
    std::printf("elastic membership: %llu chunks resilvered, %llu hand-off "
                "releases audited, %llu wrong-epoch bounces, %llu degraded "
                "reads\n",
                total("elastic.resilver_chunks"),
                total("check.resilver_drops"), total("elastic.wrong_epoch"),
                total("staging.degraded_reads"));
  }

  if (opts.gen.ckpt_probability > 0) {
    std::printf("ckpt hierarchy: %llu drains completed, %llu cache restarts, "
                "%llu partner rebuilds, %llu PFS restarts\n",
                total("ckpt.drains"), total("ckpt.cache_restarts"),
                total("ckpt.partner_rebuilds"), total("ckpt.pfs_restarts"));
  }

  if (opts.gen.tenants > 1) {
    std::printf("tenant isolation (%d tenants): %llu bystander reads "
                "compared bit-for-bit against solo references\n",
                opts.gen.tenants, total("check.isolation_reads"));
  }

  if (opts.gen.codec_mix ||
      opts.gen.codec != wlog::codec::Scheme::kNone) {
    const unsigned long long raw = total("wlog.codec_raw_bytes");
    const unsigned long long stored = total("wlog.codec_stored_bytes");
    const double ratio =
        stored > 0 ? static_cast<double>(raw) / static_cast<double>(stored)
                   : 0.0;
    std::printf("payload codec (%s): %llu blocks encoded (%.2fx over "
                "%llu MB raw), %llu reads compared against codec-off "
                "references\n",
                codec_mode.c_str(), total("wlog.codec_blocks"), ratio,
                raw >> 20, total("check.codec_reads"));
  }

  for (const check::CampaignFailure& failure : result.failures) {
    std::printf("---\n");
    // The report tracks the shrunk schedule (== the original when the
    // shrinker was disabled or out of budget).
    print_report(failure.shrunk, failure.report);
    if (failure.shrink_attempts > 0) {
      std::printf("shrunk to %d failure%s in %d oracle runs\n",
                  static_cast<int>(failure.shrunk.failures.size()),
                  failure.shrunk.failures.size() == 1 ? "" : "s",
                  failure.shrink_attempts);
    }
    std::printf("REPRO: --repro='%s'\n", failure.shrunk.repro().c_str());
    if (!forensics_dir.empty() && failure.report.bundle != nullptr) {
      write_bundle(forensics_dir,
                   "bundle-" + std::to_string(failure.schedule.id) + ".json",
                   *failure.report.bundle);
    }
  }

  bool ok = expect_fail ? !result.ok() : result.ok();
  if (expect_fail && result.ok()) {
    std::fputs("expected at least one invariant violation, found none\n",
               stdout);
    if (!forensics_dir.empty()) {
      // Document the mismatch: re-run the first schedule with a forced
      // bundle so CI has recorder evidence of the run that should have
      // failed but didn't.
      const std::vector<check::Schedule> schedules =
          check::generate_schedules(opts.gen);
      if (!schedules.empty()) {
        check::ReferenceCache cache;
        const check::OracleReport rerun = check::check_schedule(
            schedules.front(), cache, opts.sabotage, /*capture_bundle=*/true);
        if (rerun.bundle != nullptr) {
          write_bundle(forensics_dir, "bundle-mismatch.json", *rerun.bundle);
        }
      }
    }
  }
  // Non-vacuity: a feature campaign whose counters stayed zero never
  // exercised the feature, so its clean verdict proves nothing.
  for (const std::string& name : required) {
    if (total(name) > 0) continue;
    std::printf("--require: %s is 0 — the campaign never exercised it\n",
                name.c_str());
    ok = false;
  }
  return ok ? 0 : 1;
}

int main(int argc, char** argv) {
  try {
    return run_cli(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
