// End-to-end tests of the observability layer threaded through the
// runtime: zero perturbation when enabled, staging-internal trace kinds
// gated on ObsConfig, breakdown/critical-path reporting on a real failure
// run, Chrome export validity, and sweep aggregation determinism.
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "check/counters.hpp"
#include "check/schedule.hpp"
#include "core/executor.hpp"
#include "core/setups.hpp"
#include "core/sweep.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/report.hpp"
#include "util/json_reader.hpp"

namespace dstage::core {
namespace {

WorkflowSpec small_spec(Scheme scheme, int failures, std::uint64_t seed,
                        bool obs_on) {
  WorkflowSpec spec = table2_setup(scheme);
  spec.total_ts = 10;
  spec.failures.count = failures;
  spec.failures.seed = seed;
  spec.obs.enabled = obs_on;
  return spec;
}

bool is_obs_kind(obs::Kind k) {
  return obs::kind_info(k).digest == obs::Digest::kObsOnly;
}

TEST(ObsRuntimeTest, DisabledByDefault) {
  WorkflowRunner runner(small_spec(Scheme::kUncoordinated, 0, 1, false));
  runner.run();
  EXPECT_EQ(runner.runtime().obs(), nullptr);
  for (const obs::TraceEvent& e : runner.trace().events()) {
    EXPECT_FALSE(is_obs_kind(e.kind)) << obs::kind_name(e.kind);
  }
}

TEST(ObsRuntimeTest, EnablingObsDoesNotPerturbTheRun) {
  WorkflowRunner off(small_spec(Scheme::kUncoordinated, 1, 6, false));
  WorkflowRunner on(small_spec(Scheme::kUncoordinated, 1, 6, true));
  const RunMetrics m_off = off.run();
  const RunMetrics m_on = on.run();

  // Identical timing and staging behaviour...
  EXPECT_EQ(m_on.total_time_s, m_off.total_time_s);
  EXPECT_EQ(m_on.staging.puts, m_off.staging.puts);
  EXPECT_EQ(m_on.events_processed, m_off.events_processed);
  // ...and the workflow-level event stream is identical once the
  // obs-gated staging-internal kinds are filtered out.
  std::vector<const obs::TraceEvent*> a, b;
  for (const obs::TraceEvent& e : off.trace().events()) a.push_back(&e);
  for (const obs::TraceEvent& e : on.trace().events()) {
    if (!is_obs_kind(e.kind)) b.push_back(&e);
  }
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i]->at.ns, b[i]->at.ns);
    EXPECT_EQ(a[i]->kind, b[i]->kind);
    EXPECT_EQ(a[i]->component, b[i]->component);
    EXPECT_EQ(a[i]->value, b[i]->value);
  }
}

TEST(ObsRuntimeTest, GcKindsRecordedOnlyWhenEnabled) {
  // Uncoordinated logging + periodic durable checkpoints exercise the GC:
  // watermarks advance and sweeps run on every checkpoint.
  WorkflowRunner on(small_spec(Scheme::kUncoordinated, 0, 1, true));
  on.run();
  EXPECT_FALSE(on.trace().of_kind(obs::Kind::kGcWatermark).empty());
  EXPECT_FALSE(on.trace().of_kind(obs::Kind::kGcSweep).empty());

  obs::Observability* o = on.runtime().obs();
  ASSERT_NE(o, nullptr);
  // Per-server counters agree with the trace (counter() is find-or-create,
  // so a non-const registry handle is needed even to read).
  std::uint64_t advances = 0, sweeps = 0;
  for (int s = 0; s < on.runtime().server_count(); ++s) {
    const std::string label = "staging-" + std::to_string(s);
    advances += o->metrics().counter("gc.watermark_advances", label).value();
    sweeps += o->metrics().counter("gc.sweeps", label).value();
  }
  EXPECT_EQ(advances, on.trace().of_kind(obs::Kind::kGcWatermark).size());
  EXPECT_EQ(sweeps, on.trace().of_kind(obs::Kind::kGcSweep).size());
}

TEST(ObsRuntimeTest, CoordinatedFailureBreakdownAndCriticalPath) {
  WorkflowRunner runner(small_spec(Scheme::kCoordinated, 1, 6, true));
  const RunMetrics m = runner.run();
  ASSERT_EQ(m.failures_injected, 1);
  const obs::Observability* o = runner.runtime().obs();
  ASSERT_NE(o, nullptr);
  EXPECT_EQ(o->tracer().open_count(), 0u);  // finalize closed everything

  // Acceptance: per-phase breakdown whose phase columns sum to the track
  // total within 1e-9 s (exact in integer ns, in fact).
  const obs::Breakdown b = obs::phase_breakdown(o->tracer());
  ASSERT_FALSE(b.tracks.empty());
  bool saw_restart = false;
  for (const auto& t : b.tracks) {
    EXPECT_EQ(t.attributed_ns(), t.total_ns) << t.track;
    saw_restart = saw_restart || t.phase(obs::Phase::kRestart) > 0;
  }
  EXPECT_TRUE(saw_restart);  // the recovery shows up as restart time

  // Acceptance: a reconstructable recovery tree with the detect -> ...
  // stages as children, critical path marked.
  const auto recoveries = obs::recovery_paths(o->tracer());
  ASSERT_EQ(recoveries.size(), 1u);
  const obs::PathNode& root = recoveries[0];
  EXPECT_FALSE(root.children.empty());
  bool saw_detect = false, critical = false;
  for (const auto& c : root.children) {
    saw_detect = saw_detect || c.span->name == "detect";
    critical = critical || c.on_critical_path;
  }
  EXPECT_TRUE(saw_detect);
  EXPECT_TRUE(critical);

  // Acceptance: the exported Chrome trace passes the independent validator.
  const obs::TraceValidation v =
      obs::validate_chrome_trace(obs::chrome_trace_json(o->tracer()).str());
  EXPECT_TRUE(v.ok) << (v.errors.empty() ? "" : v.errors[0]);
  EXPECT_GT(v.events, 0u);
}

TEST(ObsRuntimeTest, KilledProcessSpansStayMatchedInExport) {
  // Node-level failures under Hybrid kill several processes mid-activity;
  // every span must still export as a matched begin/end pair.
  WorkflowSpec spec = small_spec(Scheme::kHybrid, 2, 3, true);
  spec.failures.node_failure_fraction = 1.0;
  WorkflowRunner runner(spec);
  runner.run();
  const obs::Observability* o = runner.runtime().obs();
  ASSERT_NE(o, nullptr);
  const obs::TraceValidation v =
      obs::validate_chrome_trace(obs::chrome_trace_json(o->tracer()).str());
  EXPECT_TRUE(v.ok) << (v.errors.empty() ? "" : v.errors[0]);
}

// Each fact is counted once, in its *Stats struct, and exported to the
// registry once: every campaign counter the registry also exports must
// total exactly what the counter table reads from the run's RunMetrics. (A
// spill fetch used to be counted at the site and again at export, and a
// completed drain by both the drain agent and the hierarchy.) The run arms
// the governor, an elastic episode and the checkpoint hierarchy.
//
// The schedule was found by search once the governor charged a shared log
// buffer once. With the earlier second failure (f=0:11:0.5:) no budget
// from 512 down to 352 MB faults a spilled version back in, and 320 MB
// kills the joiner with "rpc put rejected by memory governor after
// retries". Failing the analytic at ts 8 instead replays spilled reads;
// at 512 and 448 MB that run bounces no put, at 416 MB every row fires.
TEST(ObsRuntimeTest, RegistryTotalsEqualCounterTable) {
  WorkflowSpec spec =
      check::Schedule::parse(
          "cc1;id=1;sch=un;ts=12;sp=3;ap=4;lp=0;res=0;mtbf=0;mb=416"
          ";elastic=j7,r12;ckpt=2;f=0:7:0.5:n;f=1:8:0.5:")
          .to_spec();
  spec.obs.enabled = true;
  WorkflowRunner runner(spec);
  check::OracleReport report;
  report.metrics = runner.run();

  const JsonParse parsed =
      parse_json(runner.runtime().obs()->metrics().to_json().str());
  ASSERT_TRUE(parsed.ok);
  const JsonValue* counters = parsed.value.member("counters");
  ASSERT_NE(counters, nullptr);
  std::map<std::string, std::uint64_t> totals;
  for (const auto& [key, value] : counters->object) {
    totals[key.substr(0, key.find('{'))] += value.as_u64();
  }
  int rows = 0;
  for (const check::Counter& row : check::counters()) {
    if (!row.in_registry) continue;
    ++rows;
    const std::string name(row.name);
    const std::uint64_t value = row.read(report);
    EXPECT_EQ(totals[name], value) << name;
    // Every mechanism really acted, so no row passes as 0 == 0 — except a
    // restart falling through to the PFS, which needs a second XOR loss
    // of the restart set and which no generated schedule has produced.
    if (name != "ckpt.pfs_restarts") {
      EXPECT_GT(value, 0u) << name;
    }
  }
  EXPECT_EQ(rows, 10);
}

// Satellite acceptance: metrics collected under an N-thread sweep equal a
// serial collection exactly — same runs, same aggregate, any thread count.
TEST(ObsRuntimeTest, ParallelSweepAggregateEqualsSerial) {
  auto make = [](std::uint64_t seed) {
    return small_spec(Scheme::kUncoordinated, 1, seed, true);
  };
  obs::MetricsRegistry serial, parallel;
  SweepOptions so;
  so.threads = 1;
  so.metrics = &serial;
  const auto runs_serial = run_seed_sweep(make, 6, so);
  SweepOptions po;
  po.threads = 4;
  po.metrics = &parallel;
  const auto runs_parallel = run_seed_sweep(make, 6, po);

  EXPECT_EQ(serial.to_json().str(), parallel.to_json().str());
  ASSERT_EQ(runs_serial.size(), runs_parallel.size());
  for (std::size_t i = 0; i < runs_serial.size(); ++i) {
    EXPECT_EQ(runs_serial[i].trace_digest, runs_parallel[i].trace_digest);
    // Each run also carries its own obs snapshot in the sweep result.
    EXPECT_FALSE(runs_serial[i].obs.is_null());
    EXPECT_EQ(runs_serial[i].obs.str(), runs_parallel[i].obs.str());
  }
}

}  // namespace
}  // namespace dstage::core
