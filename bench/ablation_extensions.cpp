// Ablation: the design extensions DESIGN.md calls out, measured against
// plain uncoordinated checkpointing on the Table II workload under three
// failures — (a) multi-level checkpointing (the checkpoint hierarchy:
// node-local cache, XOR partner, async PFS drain),
// (b) proactive checkpointing at several predictor qualities, and (c) the
// staging redundancy policy's cost (write response + staging memory).
#include <utility>

#include "bench/common.hpp"
#include "util/stats.hpp"

int main(int argc, char** argv) {
  using namespace dstage;
  constexpr int kFailures = 3;
  bench::Harness h("ablation_extensions", argc, argv, 8);

  bench::print_header(
      "Ablation — checkpointing extensions (Table II, 3 failures)",
      "Mean over the seed batch; Un baseline vs multi-level and proactive "
      "variants.");

  auto measure = [&](const char* variant, auto mutate) {
    auto runs = h.sweep([&](std::uint64_t seed) {
      auto spec = core::table2_setup(core::Scheme::kUncoordinated);
      spec.failures.count = kFailures;
      spec.failures.seed = seed;
      spec.failures.node_failure_fraction = 0.3;
      mutate(spec);
      return spec;
    });
    const double total = core::mean_total_time(runs);
    const double rework = bench::mean_over(runs, [](const core::RunMetrics& m) {
      double r = 0;
      for (const auto& c : m.components) r += c.timesteps_reworked;
      return r;
    });
    Json p = Json::object();
    p.set("variant", variant);
    p.set("mean_total_time_s", total);
    p.set("mean_reworked_ts", rework);
    h.add_point(std::move(p));
    return std::pair{total, rework};
  };

  const auto [base_t, base_r] =
      measure("un_pfs_only", [](core::WorkflowSpec&) {});
  std::printf("%34s %10.1f s %8.1f reworked ts\n", "Un (PFS-only)", base_t,
              base_r);

  const auto [ml_t, ml_r] =
      measure("un_multi_level", [](core::WorkflowSpec& s) {
        s.ckpt.xor_group = 2;
        for (auto& c : s.components) c.ckpt_period = 1;
      });
  std::printf("%34s %10.1f s %8.1f reworked ts  (%+.2f%%)\n",
              "Un + hierarchy (XOR 2, set @1 ts)", ml_t, ml_r,
              bench::pct(ml_t, base_t));

  for (double recall : {0.5, 1.0}) {
    const auto [p_t, p_r] = measure(
        recall == 0.5 ? "un_proactive_recall_0.5" : "un_proactive_recall_1.0",
        [recall](core::WorkflowSpec& s) {
          s.failures.predictor_recall = recall;
        });
    std::printf("%30s %.1f %10.1f s %8.1f reworked ts  (%+.2f%%)\n",
                "Un + proactive, recall", recall, p_t, p_r,
                bench::pct(p_t, base_t));
  }
  const auto [fa_t, fa_r] =
      measure("un_proactive_false_alarms", [](core::WorkflowSpec& s) {
        s.failures.predictor_recall = 1.0;
        s.failures.predictor_false_alarms = 6;
      });
  std::printf("%34s %10.1f s %8.1f reworked ts  (%+.2f%%)\n",
              "Un + proactive, 6 false alarms", fa_t, fa_r,
              bench::pct(fa_t, base_t));

  bench::print_header(
      "Ablation — staging redundancy policy (Table II, failure-free)",
      "Cost of protecting staged + logged data against staging-server "
      "loss.");
  std::printf("%22s %14s %14s %14s\n", "policy", "write resp", "vs none",
              "staging bytes");
  double none_wr = 0;
  for (int p = 0; p < 3; ++p) {
    const char* label = "none";
    const char* variant = "redundancy_none";
    auto runs = h.sweep([&](std::uint64_t seed) {
      auto spec = core::table2_setup(core::Scheme::kUncoordinated);
      spec.failures.seed = seed;
      if (p == 1) {
        spec.server.policy.kind = resilience::Redundancy::kReplication;
        spec.server.policy.replicas = 2;
      } else if (p == 2) {
        spec.server.policy.kind = resilience::Redundancy::kErasureCode;
        spec.server.policy.rs_k = 4;
        spec.server.policy.rs_m = 2;
      }
      return spec;
    });
    if (p == 1) {
      label = "replication x2";
      variant = "redundancy_replication_x2";
    } else if (p == 2) {
      label = "erasure RS(4,2)";
      variant = "redundancy_rs_4_2";
    }
    const double wr = bench::mean_over(runs, [](const core::RunMetrics& m) {
      return m.component("simulation").cum_put_response_s;
    });
    const double mem = bench::mean_over(runs, [](const core::RunMetrics& m) {
      return m.staging.total_bytes_mean;
    });
    if (p == 0) none_wr = wr;
    std::printf("%22s %13.3fs %+13.1f%% %14s\n", label, wr,
                bench::pct(wr, none_wr),
                format_bytes(static_cast<std::uint64_t>(mem)).c_str());

    Json pj = Json::object();
    pj.set("variant", variant);
    pj.set("cum_write_response_s", wr);
    pj.set("vs_none_pct", bench::pct(wr, none_wr));
    pj.set("staging_mem_mean_bytes", mem);
    h.add_point(std::move(pj));
  }
  return h.finish();
}
