#include "core/sweep.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "core/executor.hpp"
#include "obs/report.hpp"
#include "util/parallel.hpp"

namespace dstage::core {

std::vector<SweepRun> run_sweep(std::vector<WorkflowSpec> specs,
                                const SweepOptions& opts) {
  std::vector<SweepRun> out(specs.size());
  parallel_for(specs.size(), opts.threads, [&](std::size_t idx) {
    WorkflowSpec spec = std::move(specs[idx]);
    out[idx].seed = spec.failures.seed;
    WorkflowRunner runner(std::move(spec));
    out[idx].metrics = runner.run();
    out[idx].trace_digest = runner.trace().digest();
    if (const obs::Observability* o = runner.runtime().obs()) {
      Json oj = Json::object();
      oj.set("metrics", o->metrics().to_json());
      oj.set("phases",
             obs::breakdown_to_json(obs::phase_breakdown(o->tracer())));
      out[idx].obs = std::move(oj);
      if (opts.metrics != nullptr) opts.metrics->merge(o->metrics());
    }
  });
  return out;
}

std::vector<SweepRun> run_seed_sweep(
    const std::function<WorkflowSpec(std::uint64_t)>& make, int count,
    const SweepOptions& opts) {
  std::vector<WorkflowSpec> specs;
  specs.reserve(static_cast<std::size_t>(std::max(0, count)));
  for (int s = 1; s <= count; ++s) {
    specs.push_back(make(static_cast<std::uint64_t>(s)));
  }
  return run_sweep(std::move(specs), opts);
}

double mean_total_time(const std::vector<SweepRun>& runs) {
  if (runs.empty()) return 0;
  double total = 0;
  for (const auto& r : runs) total += r.metrics.total_time_s;
  return total / static_cast<double>(runs.size());
}

std::string digest_hex(std::uint64_t digest) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(digest));
  return buf;
}

Json metrics_to_json(const RunMetrics& m) {
  Json j = Json::object();
  j.set("scheme", scheme_name(m.scheme));
  j.set("total_time_s", m.total_time_s);
  j.set("failures_injected", m.failures_injected);
  j.set("total_anomalies", m.total_anomalies());
  j.set("cum_write_response_s", m.cum_write_response_s());
  j.set("pfs_bytes_written", m.pfs_bytes_written);
  j.set("pfs_bytes_read", m.pfs_bytes_read);
  j.set("events_processed", m.events_processed);

  Json comps = Json::array();
  for (const auto& c : m.components) {
    Json cj = Json::object();
    cj.set("name", c.name);
    cj.set("completion_time_s", c.completion_time_s);
    cj.set("timesteps_done", c.timesteps_done);
    cj.set("timesteps_reworked", c.timesteps_reworked);
    cj.set("failures", c.failures);
    cj.set("checkpoints", c.checkpoints);
    cj.set("local_checkpoints", c.local_checkpoints);
    cj.set("proactive_checkpoints", c.proactive_checkpoints);
    cj.set("mean_put_response_s", c.put_response_s.mean());
    cj.set("mean_get_response_s", c.get_response_s.mean());
    cj.set("p50_put_response_s", c.put_response_s.percentile(50));
    cj.set("p95_put_response_s", c.put_response_s.percentile(95));
    cj.set("p99_put_response_s", c.put_response_s.percentile(99));
    cj.set("p50_get_response_s", c.get_response_s.percentile(50));
    cj.set("p95_get_response_s", c.get_response_s.percentile(95));
    cj.set("p99_get_response_s", c.get_response_s.percentile(99));
    cj.set("cum_put_response_s", c.cum_put_response_s);
    cj.set("cum_get_response_s", c.cum_get_response_s);
    cj.set("put_bytes", c.put_bytes);
    cj.set("suppressed_puts", c.suppressed_puts);
    cj.set("wrong_version_reads", c.wrong_version_reads);
    cj.set("corrupt_reads", c.corrupt_reads);
    comps.push(std::move(cj));
  }
  j.set("components", std::move(comps));

  Json st = Json::object();
  st.set("store_bytes_peak", m.staging.store_bytes_peak);
  st.set("total_bytes_peak", m.staging.total_bytes_peak);
  st.set("total_bytes_mean", m.staging.total_bytes_mean);
  st.set("log_payload_bytes_peak", m.staging.log_payload_bytes_peak);
  st.set("puts", m.staging.puts);
  st.set("gets", m.staging.gets);
  st.set("puts_suppressed", m.staging.puts_suppressed);
  st.set("gets_from_log", m.staging.gets_from_log);
  st.set("replay_mismatches", m.staging.replay_mismatches);
  st.set("gc_versions_dropped", m.staging.gc_versions_dropped);
  j.set("staging", std::move(st));
  return j;
}

Json sweep_to_json(const std::vector<SweepRun>& runs) {
  Json arr = Json::array();
  for (const auto& r : runs) {
    Json rj = Json::object();
    rj.set("seed", r.seed);
    rj.set("trace_digest", digest_hex(r.trace_digest));
    rj.set("metrics", metrics_to_json(r.metrics));
    if (!r.obs.is_null()) rj.set("obs", r.obs);
    arr.push(std::move(rj));
  }
  return arr;
}

}  // namespace dstage::core
