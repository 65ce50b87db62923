// Memory-governor cap sweep: bounded-budget runs against the unbounded
// Fig 9(c)/(d) memory baseline. Each budget runs the Table II logged setup
// (kUncoordinated) with a per-server governor budget; the unbounded run
// (budget 0) reproduces the Fig 9(c) 100%-subset cell. The point of the
// figure: as the budget tightens, peak governed memory stays pinned under
// the budget while execution time degrades gracefully — first via
// spill-to-PFS (soft watermark), then via client backpressure (hard
// watermark). The raw data log shares its buffers with the base store, so
// each staged version is charged once: spill alone holds the line down to
// 448 MB, and the hard watermark engages at 416 and 384 MB. Pressure is not
// monotone below that: 352 and 320 MB spill earlier and bounce nothing.
// At 288 MB the hard watermark (259 MiB) leaves no room beside the
// two-version store window (256 MiB per server), so puts exhaust their
// retries and the run dies: that is the working-set floor.
#include "bench/common.hpp"

int main(int argc, char** argv) {
  using namespace dstage;
  bench::Harness h("fig_memcap", argc, argv, 1);
  bench::print_header(
      "Memory governor — bounded budgets vs the unbounded Fig 9(c)/(d) run",
      "Table II setup, 40 ts, uncoordinated logging; budget per server.");

  std::printf("%8s %12s %12s %10s %9s %9s %11s %9s %9s\n", "budget",
              "mem peak", "mem mean", "time", "spilled", "fetched",
              "rejected", "bp waits", "sweeps");

  double base_time = 0;  // unbounded run's execution time (budget 0)
  for (std::uint64_t budget_mb : {0, 1024, 768, 640, 512, 416, 384}) {
    auto runs = h.sweep([budget_mb](std::uint64_t seed) {
      auto spec = core::table2_setup(core::Scheme::kUncoordinated);
      spec.failures.seed = seed;
      spec.staging.memory_budget = budget_mb << 20;
      return spec;
    });
    const double peak = bench::mean_over(runs, [](const core::RunMetrics& m) {
      return static_cast<double>(m.staging.total_bytes_peak);
    });
    const double mean = bench::mean_over(runs, [](const core::RunMetrics& m) {
      return m.staging.total_bytes_mean;
    });
    const double time = bench::mean_over(runs, [](const core::RunMetrics& m) {
      return m.total_time_s;
    });
    auto sum = [&runs](auto pick) {
      double total = 0;
      for (const auto& r : runs) total += static_cast<double>(pick(r.metrics));
      return total / static_cast<double>(runs.size());
    };
    const double spilled = sum([](const core::RunMetrics& m) {
      return m.staging.spilled_versions;
    });
    const double spilled_bytes = sum([](const core::RunMetrics& m) {
      return m.staging.spilled_bytes;
    });
    const double fetches = sum([](const core::RunMetrics& m) {
      return m.staging.spill_fetches;
    });
    const double rejected = sum([](const core::RunMetrics& m) {
      return m.staging.puts_rejected;
    });
    const double waits = sum([](const core::RunMetrics& m) {
      return m.rpc_backpressure_waits;
    });
    const double sweeps = sum([](const core::RunMetrics& m) {
      return m.staging.urgent_gc_sweeps;
    });
    if (budget_mb == 0) base_time = time;

    char label[32];
    if (budget_mb == 0) {
      std::snprintf(label, sizeof label, "unbnd");
    } else {
      std::snprintf(label, sizeof label, "%lluMB",
                    static_cast<unsigned long long>(budget_mb));
    }
    std::printf("%8s %12s %12s %8.1fs %9.0f %9.0f %11.0f %9.0f %9.0f\n",
                label,
                format_bytes(static_cast<std::uint64_t>(peak)).c_str(),
                format_bytes(static_cast<std::uint64_t>(mean)).c_str(), time,
                spilled, fetches, rejected, waits, sweeps);

    Json p = Json::object();
    p.set("budget_mb", static_cast<double>(budget_mb));
    p.set("mem_peak_bytes", peak);
    p.set("mem_mean_bytes", mean);
    p.set("total_time_s", time);
    p.set("time_delta_pct", base_time > 0 ? bench::pct(time, base_time) : 0.0);
    p.set("spilled_versions", spilled);
    p.set("spilled_bytes", spilled_bytes);
    p.set("spill_fetches", fetches);
    p.set("puts_rejected", rejected);
    p.set("backpressure_waits", waits);
    p.set("urgent_gc_sweeps", sweeps);
    h.add_point(std::move(p));
  }
  return h.finish();
}
