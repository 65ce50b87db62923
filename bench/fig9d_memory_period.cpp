// Figure 9(d): staging memory usage vs checkpoint period. Less frequent
// checkpoints mean longer data/event queues in the staging area: the paper
// reports +76/79/84/89/97 % for periods 2..6. Only the log's retention
// beyond the store window counts here (see fig9c), so the measured curve
// starts lower and rises more steeply, but the rising trend with
// checkpoint period is reproduced.
#include "bench/common.hpp"

#include "util/stats.hpp"

int main(int argc, char** argv) {
  using namespace dstage;
  bench::Harness h("fig9d_memory_period", argc, argv, 1);
  bench::print_header(
      "Figure 9(d) — staging memory usage vs checkpoint period",
      "Table II setup, full domain, 40 ts, failure-free "
      "(paper: +76/79/84/89/97% for periods 2..6).");

  const double paper[] = {76, 79, 84, 89, 97};
  std::printf("%8s %12s %12s %10s %12s\n", "period", "Ds mean", "log mean",
              "delta", "paper");
  auto mem_mean = [](const core::RunMetrics& m) {
    return m.staging.total_bytes_mean;
  };
  int i = 0;
  for (int period : {2, 3, 4, 5, 6}) {
    auto ds = h.sweep([period](std::uint64_t seed) {
      auto spec =
          core::table2_setup(core::Scheme::kNone, 1.0, period, period + 1);
      spec.failures.seed = seed;
      return spec;
    });
    auto lg = h.sweep([period](std::uint64_t seed) {
      auto spec = core::table2_setup(core::Scheme::kUncoordinated, 1.0,
                                     period, period + 1);
      spec.failures.seed = seed;
      return spec;
    });
    const double ds_mean = bench::mean_over(ds, mem_mean);
    const double lg_mean = bench::mean_over(lg, mem_mean);
    const double delta = bench::pct(lg_mean, ds_mean);
    std::printf("%5d ts %12s %12s %+9.1f%% %+11.0f%%\n", period,
                format_bytes(static_cast<std::uint64_t>(ds_mean)).c_str(),
                format_bytes(static_cast<std::uint64_t>(lg_mean)).c_str(),
                delta, paper[i]);

    Json p = Json::object();
    p.set("ckpt_period", period);
    p.set("ds_mem_mean_bytes", ds_mean);
    p.set("logged_mem_mean_bytes", lg_mean);
    p.set("delta_pct", delta);
    p.set("paper_delta_pct", paper[i]);
    h.add_point(std::move(p));
    ++i;
  }
  return h.finish();
}
