// Figure 9(c): staging memory usage vs subset size. The paper reports data/
// event logging raising memory by 81/82/84/86/86 % over the original
// staging's. The raw data log shares each logged version's buffer with the
// base store and the footprint charges a buffer once, so the measured
// overhead is what the log retains beyond the store window (+46.5 % on
// the time average) — about half the paper's level; the *shape*, flat
// across subset sizes, is preserved. Both peak and time-averaged bytes
// (nominal, paper-scale) are reported.
#include "bench/common.hpp"

#include "util/stats.hpp"

int main(int argc, char** argv) {
  using namespace dstage;
  bench::Harness h("fig9c_memory_subset", argc, argv, 1);
  bench::print_header(
      "Figure 9(c) — staging memory usage vs subset size",
      "Table II setup, 40 ts, failure-free (paper: +81..86% from logging).");

  std::printf("%8s %12s %12s %10s %12s %12s %10s\n", "subset", "Ds mean",
              "log mean", "delta", "Ds peak", "log peak", "delta");
  auto mem_mean = [](const core::RunMetrics& m) {
    return m.staging.total_bytes_mean;
  };
  auto mem_peak = [](const core::RunMetrics& m) {
    return static_cast<double>(m.staging.total_bytes_peak);
  };
  for (double fraction : {0.2, 0.4, 0.6, 0.8, 1.0}) {
    auto ds = h.sweep([fraction](std::uint64_t seed) {
      auto spec = core::table2_setup(core::Scheme::kNone, fraction);
      spec.failures.seed = seed;
      return spec;
    });
    auto lg = h.sweep([fraction](std::uint64_t seed) {
      auto spec = core::table2_setup(core::Scheme::kUncoordinated, fraction);
      spec.failures.seed = seed;
      return spec;
    });
    const double ds_mean = bench::mean_over(ds, mem_mean);
    const double lg_mean = bench::mean_over(lg, mem_mean);
    const double ds_peak = bench::mean_over(ds, mem_peak);
    const double lg_peak = bench::mean_over(lg, mem_peak);
    std::printf(
        "%7.0f%% %12s %12s %+9.1f%% %12s %12s %+9.1f%%\n", fraction * 100,
        format_bytes(static_cast<std::uint64_t>(ds_mean)).c_str(),
        format_bytes(static_cast<std::uint64_t>(lg_mean)).c_str(),
        bench::pct(lg_mean, ds_mean),
        format_bytes(static_cast<std::uint64_t>(ds_peak)).c_str(),
        format_bytes(static_cast<std::uint64_t>(lg_peak)).c_str(),
        bench::pct(lg_peak, ds_peak));

    Json p = Json::object();
    p.set("subset_fraction", fraction);
    p.set("ds_mem_mean_bytes", ds_mean);
    p.set("logged_mem_mean_bytes", lg_mean);
    p.set("mean_delta_pct", bench::pct(lg_mean, ds_mean));
    p.set("ds_mem_peak_bytes", ds_peak);
    p.set("logged_mem_peak_bytes", lg_peak);
    p.set("peak_delta_pct", bench::pct(lg_peak, ds_peak));
    h.add_point(std::move(p));
  }
  return h.finish();
}
