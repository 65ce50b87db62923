// dstage_bench — the repository benchmark driver.
//
//   dstage_bench run --workload=NAME [--seed=N] [--seconds=S] [--trace=0|1]
//                    [--scale=full|smoke] [--json=PATH]
//                    [--spec=BENCHMARK.json]
//       Run one workload. Prints every metric as `name value unit`, then
//       the one-line JSON result last. Exit 1 when any unit failed. The
//       run measures for --seconds, else for the spec's run_seconds.
//   dstage_bench compare SET_A SET_B [--spec=BENCHMARK.json]
//       Median and quartiles of every end-to-end metric per workload over
//       the BENCH_*.json files below each directory, judged against the
//       declared bounds. Exit 1 when a metric got worse by more than its
//       bound.
//   dstage_bench smoke [--spec=BENCHMARK.json]
//       Contract check at --scale=smoke: every declared metric is emitted,
//       finite and in its unit, and seed-determined metrics repeat exactly.
//   dstage_bench list
//       The workload names, one per line.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>

#include "report.hpp"
#include "util/flags.hpp"
#include "util/json.hpp"
#include "workloads.hpp"

namespace {

using namespace dstage;
using namespace dstage::benchmark;

int usage() {
  std::fputs(
      "usage: dstage_bench run --workload=NAME [--seed=N] [--seconds=S]\n"
      "                        [--trace=0|1] [--scale=full|smoke] "
      "[--json=PATH]\n"
      "                        [--spec=BENCHMARK.json]\n"
      "       dstage_bench compare SET_A SET_B [--spec=BENCHMARK.json]\n"
      "       dstage_bench smoke [--spec=BENCHMARK.json]\n"
      "       dstage_bench list\n"
      "workloads:",
      stderr);
  for (const std::string& w : workload_names()) {
    std::fprintf(stderr, " %s", w.c_str());
  }
  std::fputs("\n", stderr);
  return 2;
}

bool unknown_flags(const Flags& flags) {
  bool bad = false;
  for (const std::string& f : flags.unused()) {
    std::fprintf(stderr, "unknown flag --%s\n", f.c_str());
    bad = true;
  }
  return bad;
}

bool parse_switch(const std::string& text, bool& out) {
  if (text == "1" || text == "true") {
    out = true;
  } else if (text == "0" || text == "false") {
    out = false;
  } else {
    return false;
  }
  return true;
}

Json metrics_json(const MetricList& list) {
  Json out = Json::object();
  for (const Metric& m : list.items()) {
    Json entry = Json::object();
    entry.set("value", m.value);
    entry.set("unit", m.unit);
    out.set(m.name, std::move(entry));
  }
  return out;
}

bool write_record(const std::string& path, const RunOptions& opts,
                  const RunResult& r) {
  Json doc = Json::object();
  doc.set("workload", opts.workload);
  doc.set("seed", opts.seed);
  if (!opts.smoke) doc.set("seconds", opts.seconds);
  doc.set("trace", opts.trace ? 1 : 0);
  doc.set("scale", opts.smoke ? "smoke" : "full");
  doc.set("correct", r.correct);
  doc.set("attempted", r.attempted);
  doc.set("failed", r.failed);
  doc.set("metrics", metrics_json(r.metrics));
  doc.set("extras", metrics_json(r.extras));
  Json errors = Json::array();
  for (const std::string& e : r.errors) errors.push(e);
  doc.set("errors", std::move(errors));
  std::ofstream out(path);
  if (!out) return false;
  doc.dump(out);
  return static_cast<bool>(out);
}

int cmd_run(const Flags& flags) {
  RunOptions opts;
  opts.workload = flags.get("workload", "");
  opts.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  opts.seconds = flags.get_double("seconds", 0);
  const std::string spec_path = flags.get("spec", "BENCHMARK.json");
  const std::string scale = flags.get("scale", "full");
  const std::string json_path = flags.get("json", "");
  if (!parse_switch(flags.get("trace", "0"), opts.trace) ||
      (scale != "full" && scale != "smoke") || opts.workload.empty() ||
      unknown_flags(flags)) {
    return usage();
  }
  opts.smoke = scale == "smoke";
  if (!flags.has("seconds") && !opts.smoke) {
    std::string error;
    const auto spec = load_spec(spec_path, error);
    if (!spec) {
      std::fprintf(stderr, "%s (or pass --seconds)\n", error.c_str());
      return 2;
    }
    opts.seconds = spec->run_seconds;
  }
  if (!opts.smoke && !(opts.seconds > 0)) return usage();

  const RunResult r = run_workload(opts);
  for (const MetricList* list : {&r.metrics, &r.extras}) {
    for (const Metric& m : list->items()) {
      std::printf("%s %s %s\n", m.name.c_str(), format_number(m.value).c_str(),
                  m.unit.c_str());
    }
  }
  for (const std::string& e : r.errors) {
    std::fprintf(stderr, "%s: %s\n", opts.workload.c_str(), e.c_str());
  }
  if (!json_path.empty() && !write_record(json_path, opts, r)) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("%s\n",
              result_line(r.correct, r.attempted, r.failed, r.metrics).c_str());
  return r.correct ? 0 : 1;
}

int cmd_compare(const Flags& flags) {
  const auto& args = flags.positional();
  const std::string spec_path = flags.get("spec", "BENCHMARK.json");
  if (args.size() != 3 || unknown_flags(flags)) return usage();
  std::string error;
  const auto spec = load_spec(spec_path, error);
  if (!spec) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 2;
  }
  std::vector<RunRecord> sets[2];
  for (int s = 0; s < 2; ++s) {
    std::string why;
    sets[s] = load_records(args[1 + s], why);
    if (!why.empty()) std::fprintf(stderr, "%s\n", why.c_str());
  }

  auto values = [](const std::vector<RunRecord>& set, const std::string& w,
                   const std::string& metric) {
    std::vector<double> out;
    for (const RunRecord& rec : set) {
      if (rec.workload != w) continue;
      if (const Metric* m = rec.metrics.find(metric)) out.push_back(m->value);
    }
    return out;
  };

  std::printf("%-16s %-18s %5s %12s %25s %12s %25s %8s %6s  %s\n", "workload",
              "metric", "n", "A median", "A [q1, q3]", "B median",
              "B [q1, q3]", "B vs A", "bound", "verdict");
  int worse = 0, unresolved = 0, missing = 0;
  for (const std::string& w : spec->workloads) {
    for (const DeclaredMetric& d : spec->metrics) {
      if (!d.end_to_end) continue;
      const std::vector<double> a = values(sets[0], w, d.name);
      const std::vector<double> b = values(sets[1], w, d.name);
      if (a.size() < 2 || b.size() < 2) {
        std::printf("%-16s %-18s %2zu/%-2zu %s\n", w.c_str(), d.name.c_str(),
                    a.size(), b.size(), "missing (need >= 2 runs a side)");
        ++missing;
        continue;
      }
      const Quartiles qa = quartiles(a), qb = quartiles(b);
      const double spread_a = (qa.q3 - qa.q1) / std::fabs(qa.q2);
      const double spread_b = (qb.q3 - qb.q1) / std::fabs(qb.q2);
      const double change = (qb.q2 - qa.q2) / std::fabs(qa.q2);
      const double worsening = d.better == "lower" ? change : -change;
      const char* verdict = "ok";
      if (spread_a > d.bound || spread_b > d.bound) {
        verdict = "unresolved";
        ++unresolved;
      } else if (worsening > d.bound) {
        verdict = "worse";
        ++worse;
      }
      char qa_text[64], qb_text[64];
      std::snprintf(qa_text, sizeof qa_text, "[%.6g, %.6g]", qa.q1, qa.q3);
      std::snprintf(qb_text, sizeof qb_text, "[%.6g, %.6g]", qb.q1, qb.q3);
      std::printf(
          "%-16s %-18s %2zu/%-2zu %12.6g %25s %12.6g %25s %+7.2f%% %5.1f%%  "
          "%s\n",
          w.c_str(), d.name.c_str(), a.size(), b.size(), qa.q2, qa_text, qb.q2,
          qb_text, 100 * change, 100 * d.bound, verdict);
    }
  }
  std::printf("compare: %d worse, %d unresolved, %d missing\n", worse,
              unresolved, missing);
  return worse > 0 ? 1 : 0;
}

/// Every declared end-to-end (or per-layer) metric present, finite and in
/// its unit, and nothing undeclared emitted. Returns the problems printed.
int check_emitted(const std::string& workload, const RunResult& r,
                  const BenchSpec& spec, bool end_to_end) {
  int problems = 0;
  std::size_t declared = 0;
  for (const DeclaredMetric& d : spec.metrics) {
    if (d.end_to_end != end_to_end) continue;
    ++declared;
    const Metric* m = r.metrics.find(d.name);
    if (m == nullptr) {
      std::printf("FAIL %s: %s not emitted\n", workload.c_str(),
                  d.name.c_str());
      ++problems;
    } else if (!std::isfinite(m->value) || m->unit != d.unit) {
      std::printf("FAIL %s: %s = %s %s (declared unit %s)\n",
                  workload.c_str(), d.name.c_str(),
                  format_number(m->value).c_str(), m->unit.c_str(),
                  d.unit.c_str());
      ++problems;
    } else if (end_to_end && m->value == 0) {
      std::printf("FAIL %s: end-to-end metric %s reads 0\n", workload.c_str(),
                  d.name.c_str());
      ++problems;
    }
  }
  if (r.metrics.items().size() != declared) {
    std::printf("FAIL %s: %zu metrics emitted, %zu declared\n",
                workload.c_str(), r.metrics.items().size(), declared);
    ++problems;
  }
  return problems;
}

/// Units whose values are functions of the seed alone (virtual time,
/// nominal bytes, counts, ratios of counts). Everything else is host time
/// or host memory and varies run to run.
bool deterministic_unit(const std::string& unit) {
  return unit == "virtual_s" || unit == "GB" || unit == "count" ||
         unit == "x" || unit == "ratio";
}

int check_repeatable(const std::string& workload, const RunResult& a,
                     const RunResult& b) {
  int problems = 0;
  for (const Metric& m : a.metrics.items()) {
    if (!deterministic_unit(m.unit)) continue;
    const Metric* other = b.metrics.find(m.name);
    if (other == nullptr || other->value != m.value) {
      std::printf("FAIL %s: %s differs across identical runs (%s vs %s)\n",
                  workload.c_str(), m.name.c_str(),
                  format_number(m.value).c_str(),
                  other ? format_number(other->value).c_str() : "missing");
      ++problems;
    }
  }
  return problems;
}

int cmd_smoke(const Flags& flags) {
  const std::string spec_path = flags.get("spec", "BENCHMARK.json");
  if (unknown_flags(flags)) return usage();
  std::string error;
  const auto spec = load_spec(spec_path, error);
  if (!spec) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 2;
  }
  int problems = 0;
  if (spec->workloads != workload_names()) {
    std::printf("FAIL: BENCHMARK.json workloads differ from the program's\n");
    ++problems;
  }
  for (const std::string& w : workload_names()) {
    for (bool trace : {false, true}) {
      const int before = problems;
      RunOptions opts;
      opts.workload = w;
      opts.seed = 1;
      opts.trace = trace;
      opts.smoke = true;
      const RunResult a = run_workload(opts);
      const RunResult b = run_workload(opts);
      for (const RunResult* r : {&a, &b}) {
        for (const std::string& e : r->errors) {
          std::printf("FAIL %s: %s\n", w.c_str(), e.c_str());
          ++problems;
        }
      }
      problems += check_emitted(w, a, *spec, !trace);
      problems += check_repeatable(w, a, b);
      std::printf("%s %s trace=%d: %zu metrics, %llu units\n",
                  problems == before ? "ok  " : "FAIL", w.c_str(),
                  trace ? 1 : 0, a.metrics.items().size(),
                  static_cast<unsigned long long>(a.attempted));
    }
  }
  std::printf("smoke: %d problem%s\n", problems, problems == 1 ? "" : "s");
  return problems == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Flags flags(argc, argv);
    const auto& args = flags.positional();
    const std::string cmd = args.empty() ? "" : args[0];
    if (cmd == "run") return cmd_run(flags);
    if (cmd == "compare") return cmd_compare(flags);
    if (cmd == "smoke") return cmd_smoke(flags);
    if (cmd == "list") {
      for (const std::string& w : workload_names()) std::puts(w.c_str());
      return 0;
    }
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
