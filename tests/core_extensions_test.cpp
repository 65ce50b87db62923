// Tests for the paper's future-work extensions: multi-level checkpointing
// (the checkpoint hierarchy: node-local cache, XOR partner, PFS drain) and
// proactive, prediction-triggered checkpoints.
#include <gtest/gtest.h>

#include "core/executor.hpp"
#include "core/setups.hpp"

namespace dstage::core {
namespace {

WorkflowSpec base_spec(int failures, std::uint64_t seed) {
  WorkflowSpec spec = table2_setup(Scheme::kUncoordinated);
  spec.total_ts = 12;
  spec.failures.count = failures;
  spec.failures.seed = seed;
  spec.failures.node_failure_fraction = 0;  // process failures by default
  return spec;
}

RunMetrics run(WorkflowSpec spec) {
  WorkflowRunner runner(std::move(spec));
  return runner.run();
}

/// The checkpoint hierarchy (DESIGN.md §12) with a set every `period`
/// timesteps: node-local cache, XOR partner groups of two, async drain.
WorkflowSpec hierarchy_spec(int failures, std::uint64_t seed, int period) {
  WorkflowSpec spec = base_spec(failures, seed);
  spec.ckpt.xor_group = 2;
  for (auto& c : spec.components) c.ckpt_period = period;
  return spec;
}

TEST(MultilevelCkptTest, HierarchySetsFollowTheCheckpointPeriod) {
  WorkflowSpec spec = hierarchy_spec(0, 1, 4);
  spec.components[0].ckpt_period = 2;
  auto m = run(std::move(spec));
  // 12 ts: sim sets at 2, 4, ..., 12 (6); analytic at 4, 8, 12 (3). Every
  // checkpoint is a cache set: none is a synchronous PFS write.
  EXPECT_EQ(m.component("simulation").local_checkpoints, 6);
  EXPECT_EQ(m.component("analytic").local_checkpoints, 3);
  for (const auto& c : m.components) EXPECT_EQ(c.checkpoints, 0) << c.name;
  EXPECT_EQ(m.ckpt.sets_written, 9u);
  EXPECT_GT(m.ckpt.drains_completed, 0u);  // the drain still reaches the PFS
}

TEST(MultilevelCkptTest, ProcessFailureRestartsFromTheCache) {
  // With a set every timestep, a process failure loses at most the
  // interrupted timestep, and the intact cache serves the restart without
  // touching the PFS.
  for (std::uint64_t seed : {2, 3, 6, 7}) {
    auto m = run(hierarchy_spec(1, seed, 1));
    EXPECT_EQ(m.total_anomalies(), 0) << "seed " << seed;
    EXPECT_EQ(m.failures_injected, 1) << "seed " << seed;
    EXPECT_EQ(m.ckpt.cache_restarts, 1u) << "seed " << seed;
    EXPECT_EQ(m.pfs_bytes_read, 0u) << "seed " << seed;
    for (const auto& c : m.components) {
      EXPECT_LE(c.timesteps_reworked, 1) << c.name << " seed " << seed;
    }
  }
}

TEST(MultilevelCkptTest, NodeFailureRestartsViaPartnerRebuild) {
  // A node loss wipes the failed member's cached blocks; its XOR partner
  // rebuilds them, so the restart still loses at most the interrupted
  // timestep and reads nothing from the PFS. The fall-through to the PFS
  // on a second loss in one group is CkptHierarchyTest's
  // DoubleLossDegradesLoudlyToPfs.
  WorkflowSpec spec = hierarchy_spec(1, 6, 1);  // seed 6 hits the simulation
  spec.failures.node_failure_fraction = 1.0;
  auto m = run(std::move(spec));
  EXPECT_EQ(m.total_anomalies(), 0);
  EXPECT_EQ(m.ckpt.partner_rebuilds, 1u);
  EXPECT_EQ(m.ckpt.cache_restarts, 0u);
  EXPECT_GT(m.ckpt.blocks_lost, 0u);
  EXPECT_LE(m.component("simulation").timesteps_reworked, 1);
  EXPECT_EQ(m.pfs_bytes_read, 0u);
}

TEST(MultilevelCkptTest, FasterRecoveryThanPfsOnly) {
  const double t_plain = run(base_spec(1, 6)).total_time_s;
  const double t_multi = run(hierarchy_spec(1, 6, 1)).total_time_s;
  EXPECT_LT(t_multi, t_plain);
}

TEST(ProactiveCkptTest, PredictedFailuresShrinkRework) {
  WorkflowSpec spec = base_spec(1, 6);  // sim fails mid-run
  spec.failures.predictor_recall = 1.0;
  auto m = run(std::move(spec));
  EXPECT_EQ(m.total_anomalies(), 0);
  EXPECT_GE(m.component("simulation").proactive_checkpoints, 1);
  // The emergency checkpoint right before death means only the interrupted
  // timestep is redone.
  EXPECT_LE(m.component("simulation").timesteps_reworked, 1);
}

TEST(ProactiveCkptTest, UnpredictedBaselineReworksMore) {
  WorkflowSpec predicted = base_spec(1, 6);
  predicted.failures.predictor_recall = 1.0;
  WorkflowSpec blind = base_spec(1, 6);
  auto mp = run(std::move(predicted));
  auto mb = run(std::move(blind));
  EXPECT_LT(mp.component("simulation").timesteps_reworked,
            mb.component("simulation").timesteps_reworked);
  EXPECT_LT(mp.total_time_s, mb.total_time_s);
}

TEST(ProactiveCkptTest, FalseAlarmsCostTimeNotCorrectness) {
  WorkflowSpec noisy = base_spec(0, 5);
  noisy.failures.predictor_false_alarms = 4;
  WorkflowSpec quiet = base_spec(0, 5);
  auto mn = run(std::move(noisy));
  auto mq = run(std::move(quiet));
  EXPECT_EQ(mn.total_anomalies(), 0);
  int alarms = 0;
  for (const auto& c : mn.components) alarms += c.proactive_checkpoints;
  EXPECT_GT(alarms, 0);
  EXPECT_GE(mn.total_time_s, mq.total_time_s);
  EXPECT_EQ(mn.failures_injected, 0);  // alarms kill nothing
}

TEST(ProactiveCkptTest, ReplayStillConsistentAfterEmergencyCheckpoint) {
  // The emergency checkpoint inserts a W_Chk_ID mid-cycle; the replay
  // anchored on it must stay byte-exact across a seed sweep.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    WorkflowSpec spec = base_spec(1, seed);
    spec.failures.predictor_recall = 1.0;
    auto m = run(std::move(spec));
    EXPECT_EQ(m.total_anomalies(), 0) << "seed " << seed;
    EXPECT_EQ(m.staging.replay_mismatches, 0u) << "seed " << seed;
  }
}

TEST(ProactiveCkptTest, EmergencyCheckpointIsDurableWithHierarchyOff) {
  // With the hierarchy off the emergency checkpoint is a regular PFS
  // write: a node loss right after it still restarts from it.
  WorkflowSpec spec = base_spec(1, 6);
  spec.failures.predictor_recall = 1.0;
  spec.failures.node_failure_fraction = 1.0;
  auto m = run(std::move(spec));
  EXPECT_EQ(m.total_anomalies(), 0);
  EXPECT_EQ(m.component("simulation").proactive_checkpoints, 1);
  EXPECT_LE(m.component("simulation").timesteps_reworked, 1);
  EXPECT_GT(m.pfs_bytes_read, 0u);  // the restart read the PFS copy
}

TEST(ProactiveCkptTest, EmergencyCheckpointIsAHierarchySetWhenOn) {
  WorkflowSpec spec = hierarchy_spec(1, 6, 4);
  spec.failures.predictor_recall = 1.0;
  auto m = run(std::move(spec));
  EXPECT_EQ(m.total_anomalies(), 0);
  int sets = 0;
  for (const auto& c : m.components) {
    EXPECT_EQ(c.checkpoints, 0) << c.name;
    sets += c.local_checkpoints + c.proactive_checkpoints;
  }
  EXPECT_EQ(m.component("simulation").proactive_checkpoints, 1);
  EXPECT_EQ(m.ckpt.sets_written, static_cast<std::uint64_t>(sets));
  EXPECT_LE(m.component("simulation").timesteps_reworked, 1);
}

TEST(ExtensionTest, DeterministicWithExtensionsEnabled) {
  auto make = [] {
    WorkflowSpec spec = base_spec(2, 9);
    spec.failures.predictor_recall = 0.5;
    spec.failures.node_failure_fraction = 0.5;
    spec.ckpt.xor_group = 2;
    return spec;
  };
  auto a = run(make());
  auto b = run(make());
  EXPECT_DOUBLE_EQ(a.total_time_s, b.total_time_s);
  EXPECT_EQ(a.events_processed, b.events_processed);
}

}  // namespace
}  // namespace dstage::core
