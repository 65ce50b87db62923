// End-to-end workflow tests: every fault-tolerance scheme runs the Table-II
// coupled workflow to completion and exhibits the paper's semantics.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string_view>

#include "core/executor.hpp"
#include "core/setups.hpp"

namespace dstage::core {
namespace {

WorkflowSpec small_spec(Scheme scheme, int failures, std::uint64_t seed) {
  WorkflowSpec spec = table2_setup(scheme);
  spec.total_ts = 12;
  spec.failures.count = failures;
  spec.failures.seed = seed;
  return spec;
}

RunMetrics run(const WorkflowSpec& spec) {
  WorkflowRunner runner(spec);
  return runner.run();
}

TEST(WorkflowTest, FailureFreeBaselineCompletes) {
  auto m = run(small_spec(Scheme::kNone, 0, 1));
  EXPECT_EQ(m.failures_injected, 0);
  EXPECT_EQ(m.total_anomalies(), 0);
  EXPECT_EQ(m.components.size(), 2u);
  for (const auto& c : m.components) {
    EXPECT_EQ(c.timesteps_done, 12);
    EXPECT_EQ(c.timesteps_reworked, 0);
    EXPECT_EQ(c.checkpoints, 0);
  }
  EXPECT_GT(m.total_time_s, 0);
  EXPECT_GT(m.staging.puts, 0u);
  EXPECT_EQ(m.staging.puts, m.staging.gets);  // 1:1 coupling pattern
}

TEST(WorkflowTest, SchemesCheckpointAtTheirPeriods) {
  // Coordinated: period 4 over 12 ts → 3 checkpoints for each component.
  auto co = run(small_spec(Scheme::kCoordinated, 0, 1));
  EXPECT_EQ(co.component("simulation").checkpoints, 3);
  EXPECT_EQ(co.component("analytic").checkpoints, 3);
  // Uncoordinated: sim period 4 → 3; analytic period 5 → 2.
  auto un = run(small_spec(Scheme::kUncoordinated, 0, 1));
  EXPECT_EQ(un.component("simulation").checkpoints, 3);
  EXPECT_EQ(un.component("analytic").checkpoints, 2);
  // Hybrid: the analytic is replicated and never checkpoints.
  auto hy = run(small_spec(Scheme::kHybrid, 0, 1));
  EXPECT_EQ(hy.component("analytic").checkpoints, 0);
  EXPECT_GT(hy.component("simulation").checkpoints, 0);
}

TEST(WorkflowTest, UncoordinatedRecoversConsistently) {
  for (std::uint64_t seed : {1, 2, 3, 6, 7, 9, 10}) {
    auto m = run(small_spec(Scheme::kUncoordinated, 1, seed));
    EXPECT_EQ(m.failures_injected, 1) << "seed " << seed;
    EXPECT_EQ(m.total_anomalies(), 0) << "seed " << seed;
    EXPECT_EQ(m.staging.replay_mismatches, 0u) << "seed " << seed;
    for (const auto& c : m.components) EXPECT_EQ(c.timesteps_done >= 12, true);
  }
}

TEST(WorkflowTest, CoordinatedRollsEveryoneBack) {
  auto m = run(small_spec(Scheme::kCoordinated, 1, 6));
  EXPECT_EQ(m.failures_injected, 1);
  EXPECT_EQ(m.total_anomalies(), 0);
  // Both components reworked timesteps even though only one failed.
  int reworked_components = 0;
  for (const auto& c : m.components)
    reworked_components += (c.timesteps_reworked > 0);
  EXPECT_EQ(reworked_components, 2);
}

TEST(WorkflowTest, UncoordinatedRollsOnlyTheFailedComponentBack) {
  auto m = run(small_spec(Scheme::kUncoordinated, 1, 6));  // hits simulation
  EXPECT_GT(m.component("simulation").timesteps_reworked, 0);
  EXPECT_EQ(m.component("analytic").timesteps_reworked, 0);
  EXPECT_GT(m.staging.puts_suppressed, 0u);
}

TEST(WorkflowTest, IndividualSchemeExhibitsAnomaliesUnderConsumerFailure) {
  // Seed 16 fails the analytic mid-interval; without logging its re-reads
  // observe newer versions — the Fig. 2 case-1 anomaly.
  auto in = run(small_spec(Scheme::kIndividual, 1, 16));
  EXPECT_GT(in.total_anomalies(), 0);
  EXPECT_GT(in.component("analytic").failures, 0);
  // The same failure under uncoordinated logging is anomaly-free.
  auto un = run(small_spec(Scheme::kUncoordinated, 1, 16));
  EXPECT_EQ(un.total_anomalies(), 0);
  EXPECT_GT(un.staging.gets_from_log, 0u);
}

TEST(WorkflowTest, HybridMasksAnalyticFailureWithoutRollback) {
  auto m = run(small_spec(Scheme::kHybrid, 1, 10));  // hits the analytic
  EXPECT_EQ(m.total_anomalies(), 0);
  EXPECT_EQ(m.component("analytic").timesteps_reworked, 0);  // failover
  EXPECT_EQ(m.staging.gets_from_log, 0u);  // no replay was triggered
  EXPECT_EQ(m.component("analytic").failures, 1);
}

TEST(WorkflowTest, HybridSimulationFailureStillReplays) {
  auto m = run(small_spec(Scheme::kHybrid, 1, 6));  // hits the simulation
  EXPECT_EQ(m.total_anomalies(), 0);
  EXPECT_GT(m.staging.puts_suppressed, 0u);
  EXPECT_GT(m.component("simulation").timesteps_reworked, 0);
}

TEST(WorkflowTest, DeterministicGivenSeed) {
  auto a = run(small_spec(Scheme::kUncoordinated, 2, 5));
  auto b = run(small_spec(Scheme::kUncoordinated, 2, 5));
  EXPECT_DOUBLE_EQ(a.total_time_s, b.total_time_s);
  EXPECT_EQ(a.staging.puts, b.staging.puts);
  EXPECT_EQ(a.staging.puts_suppressed, b.staging.puts_suppressed);
  EXPECT_EQ(a.events_processed, b.events_processed);
}

TEST(WorkflowTest, LoggingCostsWriteResponseTime) {
  auto plain = run(small_spec(Scheme::kNone, 0, 1));
  auto logged = run(small_spec(Scheme::kUncoordinated, 0, 1));
  const double plain_wr = plain.component("simulation").cum_put_response_s;
  const double logged_wr = logged.component("simulation").cum_put_response_s;
  EXPECT_GT(logged_wr, plain_wr);          // logging is not free...
  EXPECT_LT(logged_wr, plain_wr * 1.35);   // ...but bounded (paper: <= ~15%)
}

TEST(WorkflowTest, LoggingCostsMemory) {
  auto plain = run(small_spec(Scheme::kNone, 0, 1));
  auto logged = run(small_spec(Scheme::kUncoordinated, 0, 1));
  EXPECT_GT(logged.staging.total_bytes_peak, plain.staging.total_bytes_peak);
}

// GC sweeps shrink the data log after every durable checkpoint, so its
// end-of-run size is not its peak. log_payload_bytes_peak is the sum of the
// servers' high-water marks, recounted here after every put (the only way a
// failure-free run's log grows).
TEST(WorkflowTest, LogPeakIsEachServersHighWaterMark) {
  WorkflowRunner runner(small_spec(Scheme::kUncoordinated, 0, 1));
  const auto& servers = runner.runtime().servers();
  std::map<std::uint32_t, std::uint64_t> high;  // track id → log bytes
  runner.runtime().recorder().subscribe(
      [&](const obs::Event& e, std::string_view) {
        if (e.kind != obs::Kind::kPutAdmit) return;
        for (const auto& s : servers) {
          if (s->track().id() != e.track) continue;
          std::uint64_t& h = high[e.track];
          h = std::max(h, s->data_log().nominal_bytes());
        }
      });
  const RunMetrics m = runner.run();
  std::uint64_t peak = 0;
  for (const auto& [track, bytes] : high) peak += bytes;
  std::uint64_t final_log = 0;
  for (const auto& s : servers) final_log += s->data_log().nominal_bytes();
  EXPECT_LT(final_log, peak);  // the sweeps really shrank the log
  EXPECT_EQ(m.staging.log_payload_bytes_peak, peak);
}

// With the codec off a logged put's log piece is the window's piece, so
// the memory governor charges it once. At 512 MiB/server the Table II Un
// run then fits under the hard watermark: no put bounces, and write
// response matches the unbounded run's. Charging the shared buffer twice
// put the working-set floor (~448 MB) just under the 460.8 MiB hard
// watermark and bounced 10,752 puts for 27.6 s of write response.
TEST(WorkflowTest, GovernorChargesASharedLogBufferOnce) {
  WorkflowSpec spec = table2_setup(Scheme::kUncoordinated);
  spec.failures.count = 2;
  spec.failures.seed = 1001;
  WorkflowSpec governed = spec;
  governed.staging.memory_budget = std::uint64_t{512} << 20;
  const RunMetrics bounded = run(governed);
  const RunMetrics unbounded = run(spec);
  EXPECT_EQ(bounded.staging.puts_rejected, 0u);
  EXPECT_EQ(bounded.rpc_backpressure_waits, 0u);
  EXPECT_NEAR(bounded.cum_write_response_s(), unbounded.cum_write_response_s(),
              0.01 * unbounded.cum_write_response_s());
}

TEST(WorkflowTest, FailuresCostTime) {
  auto clean = run(small_spec(Scheme::kUncoordinated, 0, 6));
  auto failed = run(small_spec(Scheme::kUncoordinated, 1, 6));
  EXPECT_GT(failed.total_time_s, clean.total_time_s);
}

TEST(WorkflowTest, CoordinatedCostsMoreThanUncoordinatedUnderFailure) {
  // The paper's headline: Un/Hy beat Co in the presence of failures.
  for (std::uint64_t seed : {2, 3, 6, 7}) {
    auto co = run(small_spec(Scheme::kCoordinated, 1, seed));
    auto un = run(small_spec(Scheme::kUncoordinated, 1, seed));
    EXPECT_GT(co.total_time_s, un.total_time_s) << "seed " << seed;
  }
}

TEST(WorkflowTest, PfsTrafficMatchesCheckpointActivity) {
  auto m = run(small_spec(Scheme::kUncoordinated, 0, 1));
  // 3 sim ckpts * 256 cores + 2 analytic ckpts * 64 cores, 8 MB/core.
  const std::uint64_t expect =
      3 * 256ull * 8'000'000 + 2 * 64ull * 8'000'000;
  EXPECT_EQ(m.pfs_bytes_written, expect);
  EXPECT_EQ(m.pfs_bytes_read, 0u);  // no failure, no restart reads
}

TEST(WorkflowTest, RunnerIsSingleShot) {
  WorkflowRunner runner(small_spec(Scheme::kNone, 0, 1));
  runner.run();
  EXPECT_THROW(runner.run(), std::logic_error);
}

TEST(WorkflowTest, InvalidSpecsRejected) {
  WorkflowSpec no_comps;
  no_comps.components.clear();
  EXPECT_THROW(WorkflowRunner{no_comps}, std::invalid_argument);
  WorkflowSpec bad = table2_setup(Scheme::kNone);
  bad.staging_servers = 0;
  EXPECT_THROW(WorkflowRunner{bad}, std::invalid_argument);
  EXPECT_THROW(table2_setup(Scheme::kNone, 0.0), std::invalid_argument);
  EXPECT_THROW(table3_setup(Scheme::kNone, 9, 1), std::invalid_argument);
}

TEST(WorkflowTest, SchemeNames) {
  EXPECT_STREQ(scheme_name(Scheme::kNone), "Ds");
  EXPECT_STREQ(scheme_name(Scheme::kCoordinated), "Co");
  EXPECT_STREQ(scheme_name(Scheme::kUncoordinated), "Un");
  EXPECT_STREQ(scheme_name(Scheme::kIndividual), "In");
  EXPECT_STREQ(scheme_name(Scheme::kHybrid), "Hy");
}

}  // namespace
}  // namespace dstage::core
