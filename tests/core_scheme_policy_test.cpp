// Unit tests for the SchemePolicy strategy layer: factory wiring, logging
// and proactive predicates, the coordinated barrier cost, and the paper's
// per-scheme recovery semantics (hybrid failover without replay, Fig. 2
// anomalies under the unlogged individual scheme), and how a run reports a
// policy error.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>

#include "core/executor.hpp"
#include "core/scheme/policy.hpp"
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

TEST(SchemePolicyTest, FactoryMapsEveryScheme) {
  for (Scheme s : {Scheme::kNone, Scheme::kCoordinated, Scheme::kUncoordinated,
                   Scheme::kIndividual, Scheme::kHybrid}) {
    auto policy = make_scheme_policy(s);
    ASSERT_NE(policy, nullptr);
    EXPECT_EQ(policy->scheme(), s);
    EXPECT_STREQ(policy->name(), scheme_name(s));
    EXPECT_EQ(policy->uses_logging(), scheme_uses_logging(s));
  }
}

TEST(SchemePolicyTest, ComponentLoggedFollowsMethodAndScheme) {
  ComponentSpec cr;
  cr.name = "cr";
  ComponentSpec repl;
  repl.name = "repl";
  repl.method = FtMethod::kReplication;

  auto un = make_scheme_policy(Scheme::kUncoordinated);
  EXPECT_TRUE(un->component_logged(cr));
  EXPECT_FALSE(un->component_logged(repl));  // replicas never replay

  auto in = make_scheme_policy(Scheme::kIndividual);
  EXPECT_FALSE(in->component_logged(cr));  // no logging at all

  auto hy = make_scheme_policy(Scheme::kHybrid);
  EXPECT_TRUE(hy->component_logged(cr));
  EXPECT_FALSE(hy->component_logged(repl));
}

TEST(SchemePolicyTest, ProactiveEligibility) {
  ComponentSpec cr;
  ComponentSpec repl;
  repl.method = FtMethod::kReplication;

  EXPECT_FALSE(make_scheme_policy(Scheme::kNone)->proactive_eligible(cr));
  // Co's recovery resets every component to the global snapshot.
  EXPECT_FALSE(
      make_scheme_policy(Scheme::kCoordinated)->proactive_eligible(cr));
  EXPECT_TRUE(
      make_scheme_policy(Scheme::kUncoordinated)->proactive_eligible(cr));
  EXPECT_TRUE(make_scheme_policy(Scheme::kHybrid)->proactive_eligible(cr));
  EXPECT_FALSE(make_scheme_policy(Scheme::kHybrid)->proactive_eligible(repl));
}

TEST(SchemePolicyTest, CoordinatedTakesNoEmergencyCheckpoints) {
  // A perfect predictor changes nothing under Co: the rollback to the
  // global snapshot would discard an emergency checkpoint, so none is
  // written and the run is the unpredicted one, byte for byte.
  WorkflowSpec blind = table2_setup(Scheme::kCoordinated);
  blind.failures.count = 2;
  blind.failures.seed = 1;
  WorkflowSpec predicted = blind;
  predicted.failures.predictor_recall = 1.0;
  WorkflowRunner blind_run(std::move(blind));
  const RunMetrics mb = blind_run.run();
  WorkflowRunner predicted_run(std::move(predicted));
  const RunMetrics mp = predicted_run.run();
  int proactive = 0;
  for (const auto& c : mp.components) proactive += c.proactive_checkpoints;
  EXPECT_EQ(proactive, 0);
  EXPECT_EQ(mp.pfs_bytes_written, mb.pfs_bytes_written);
  EXPECT_EQ(predicted_run.trace().digest(), blind_run.trace().digest());
  EXPECT_EQ(predicted_run.trace().digest(), 0x4073f2de068e38b1ull);
}

TEST(SchemePolicyTest, CoordinatedBarrierCostIsAlphaLogP) {
  WorkflowRunner runner(small_spec(Scheme::kCoordinated, 0, 1));
  const auto services = runner.runtime().services();
  const auto expected =
      runner.runtime().spec().costs.barrier_time(services.total_app_cores());
  EXPECT_EQ(runner.policy().barrier_cost(services), expected);
  EXPECT_GT(expected, sim::Duration{0});
}

TEST(SchemePolicyTest, NonCoordinatedSchemesPayNoBarrier) {
  for (Scheme s : {Scheme::kNone, Scheme::kUncoordinated, Scheme::kIndividual,
                   Scheme::kHybrid}) {
    WorkflowRunner runner(small_spec(s, 0, 1));
    EXPECT_EQ(runner.policy().barrier_cost(runner.runtime().services()),
              sim::Duration{0})
        << scheme_name(s);
  }
}

TEST(SchemePolicyTest, CoordinatedRuntimeGrowsWithBarrierAlpha) {
  auto base = small_spec(Scheme::kCoordinated, 0, 1);
  auto free_spec = base;
  free_spec.costs.barrier_alpha_s = 0;
  WorkflowRunner with_alpha(base);
  WorkflowRunner without_alpha(free_spec);
  EXPECT_GT(with_alpha.run().total_time_s,
            without_alpha.run().total_time_s);
}

// Fig. 6: a failure of the replicated analytic under Hy fails over to the
// replica — no rollback, no rework, and no staging replay.
TEST(SchemePolicyTest, HybridAnalyticFailoverTriggersNoReplay) {
  // Seed 16 places the single failure on the analytic (found by scan;
  // guarded by the assertion below).
  WorkflowRunner runner(small_spec(Scheme::kHybrid, 1, 16));
  auto m = runner.run();
  const auto& analytic = m.component("analytic");
  ASSERT_EQ(analytic.failures, 1);
  EXPECT_EQ(analytic.timesteps_reworked, 0);
  EXPECT_EQ(analytic.checkpoints, 0);
  EXPECT_EQ(analytic.timesteps_done, 12);
  EXPECT_EQ(m.total_anomalies(), 0);
  // Failover traces its recovery as one start/done pair on the analytic's
  // own track, and nothing else: it is not a checkpoint/restart, so no
  // checkpoint is restored and no log is replayed.
  const auto& t = runner.trace();
  const auto failures = t.of_kind(obs::Kind::kFailure);
  const auto starts = t.of_kind(obs::Kind::kRecoveryStart);
  const auto dones = t.of_kind(obs::Kind::kRecoveryDone);
  ASSERT_EQ(failures.size(), 1u);
  ASSERT_EQ(starts.size(), 1u);
  ASSERT_EQ(dones.size(), 1u);
  EXPECT_EQ(starts.front().component, "analytic");
  EXPECT_EQ(dones.front().component, "analytic");
  EXPECT_LT(failures.front().at, starts.front().at);
  EXPECT_LT(starts.front().at, dones.front().at);
  EXPECT_TRUE(t.of_kind(obs::Kind::kReplayDone).empty());
  EXPECT_TRUE(t.of_kind(obs::Kind::kCkptRestore).empty());
}

// Fig. 2: without logging, an individually-restarted component re-reads
// stale coupled data — the consistency anomalies the paper's scheme exists
// to prevent. The logged uncoordinated scheme sees none on the same seed.
TEST(SchemePolicyTest, IndividualSchemeExhibitsAnomaliesUnCannotSee) {
  auto in = WorkflowRunner(small_spec(Scheme::kIndividual, 1, 16)).run();
  EXPECT_GT(in.total_anomalies(), 0);

  auto un = WorkflowRunner(small_spec(Scheme::kUncoordinated, 1, 16)).run();
  EXPECT_EQ(un.total_anomalies(), 0);
  EXPECT_EQ(un.failures_injected, 1);
}

/// Checkpoints every timestep; the simulation's checkpoint at ts 2 throws.
class ThrowingCheckpointPolicy final : public SchemePolicy {
 public:
  [[nodiscard]] Scheme scheme() const override { return Scheme::kNone; }
  [[nodiscard]] bool uses_logging() const override { return false; }
  sim::Task<void> on_timestep_end(RuntimeServices& rt, Comp& comp, int ts,
                                  sim::Ctx ctx) override {
    co_await checkpoint(rt, comp, ts, ctx);
  }
  sim::Task<void> checkpoint(RuntimeServices&, Comp& comp, int ts,
                             sim::Ctx) override {
    if (comp.spec.name == "simulation" && ts == 2) {
      throw std::runtime_error("checkpoint store unreachable");
    }
    co_return;
  }
  void recover(RuntimeServices& rt, Comp& comp) override {
    recover_local(rt, comp);
  }
};

// An error thrown inside a component's process leaves the run unfinished;
// run() names the component and the error instead of reporting the
// deadlock the dead component leaves behind.
TEST(SchemePolicyTest, ComponentErrorIsReportedByName) {
  WorkflowRunner runner(small_spec(Scheme::kNone, 0, 1),
                        std::make_unique<ThrowingCheckpointPolicy>());
  std::string what;
  try {
    runner.run();
  } catch (const std::runtime_error& e) {
    what = e.what();
  }
  EXPECT_EQ(what,
            "component simulation failed: checkpoint store unreachable");
}

}  // namespace
}  // namespace dstage::core
