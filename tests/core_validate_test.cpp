// WorkflowSpec::validate(): every malformed field is rejected with an
// std::invalid_argument whose message names the offending field, and the
// shipped presets pass untouched.
#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>

#include "core/setups.hpp"
#include "core/workflow.hpp"

namespace dstage::core {
namespace {

void expect_rejected(const WorkflowSpec& spec, const std::string& needle) {
  try {
    spec.validate();
    FAIL() << "expected rejection mentioning '" << needle << "'";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "message was: " << e.what();
  }
}

TEST(ValidateTest, PresetsAreValid) {
  for (Scheme s : {Scheme::kNone, Scheme::kCoordinated, Scheme::kUncoordinated,
                   Scheme::kIndividual, Scheme::kHybrid}) {
    EXPECT_NO_THROW(table2_setup(s).validate());
    EXPECT_NO_THROW(table3_setup(s, 4, 3).validate());
  }
}

TEST(ValidateTest, WorkflowLevelFields) {
  auto spec = table2_setup(Scheme::kUncoordinated);

  auto bad = spec;
  bad.components.clear();
  expect_rejected(bad, "components");

  bad = spec;
  bad.staging_servers = 0;
  expect_rejected(bad, "staging_servers");

  bad = spec;
  bad.total_ts = 0;
  expect_rejected(bad, "total_ts");

  bad = spec;
  bad.coordinated_period = 0;
  expect_rejected(bad, "coordinated_period");

  bad = spec;
  bad.cells_per_axis = 0;
  expect_rejected(bad, "cells_per_axis");

  bad = spec;
  bad.bytes_per_point = 0;
  expect_rejected(bad, "bytes_per_point");

  bad = spec;
  bad.mem_scale = 0;
  expect_rejected(bad, "mem_scale");
}

TEST(ValidateTest, FailurePlanFields) {
  auto spec = table2_setup(Scheme::kUncoordinated);

  auto bad = spec;
  bad.failures.count = -1;
  expect_rejected(bad, "failures.count");

  bad = spec;
  bad.failures.mtbf_s = -1;
  expect_rejected(bad, "failures.mtbf_s");

  bad = spec;
  bad.failures.node_failure_fraction = 1.5;
  expect_rejected(bad, "node_failure_fraction");

  bad = spec;
  bad.failures.predictor_recall = -0.1;
  expect_rejected(bad, "predictor_recall");

  bad = spec;
  bad.failures.predictor_false_alarms = -1;
  expect_rejected(bad, "predictor_false_alarms");

  // NaN fails every comparison, so it must fail every range check too.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  bad = spec;
  bad.failures.mtbf_s = nan;
  expect_rejected(bad, "failures.mtbf_s");

  bad = spec;
  bad.failures.node_failure_fraction = nan;
  expect_rejected(bad, "node_failure_fraction");

  bad = spec;
  bad.failures.predictor_recall = nan;
  expect_rejected(bad, "predictor_recall");
}

TEST(ValidateTest, ComponentFieldsAreNamedInMessages) {
  auto spec = table2_setup(Scheme::kUncoordinated);

  auto bad = spec;
  bad.components[0].name.clear();
  expect_rejected(bad, "component name");

  bad = spec;
  bad.components[1].cores = 0;
  expect_rejected(bad, "analytic");

  bad = spec;
  bad.components[0].ckpt_period = 0;
  expect_rejected(bad, "ckpt_period");

  bad = spec;
  bad.components[0].compute_per_ts_s = -1;
  expect_rejected(bad, "compute_per_ts_s");

  bad = spec;
  bad.components[0].compute_per_ts_s =
      std::numeric_limits<double>::quiet_NaN();
  expect_rejected(bad, "compute_per_ts_s");
}

TEST(ValidateTest, CouplingFields) {
  auto spec = table2_setup(Scheme::kUncoordinated);
  ASSERT_FALSE(spec.components[0].writes.empty());
  ASSERT_FALSE(spec.components[1].reads.empty());

  auto bad = spec;
  bad.components[0].writes[0].var.clear();
  expect_rejected(bad, "write var");

  bad = spec;
  bad.components[0].writes[0].subset_fraction = 0;
  expect_rejected(bad, "subset_fraction");

  bad = spec;
  bad.components[0].writes[0].subset_fraction = 1.5;
  expect_rejected(bad, "subset_fraction");

  bad = spec;
  bad.components[1].reads[0].var.clear();
  expect_rejected(bad, "read var");

  bad = spec;
  bad.components[1].reads[0].every = 0;
  expect_rejected(bad, "every");
}

TEST(ValidateTest, MemoryGovernorFields) {
  auto spec = table2_setup(Scheme::kUncoordinated);
  // Watermarks are only meaningful when the governor is on; a disabled
  // governor (budget 0, the default) accepts anything.
  auto bad = spec;
  bad.staging.soft_watermark = -1;
  EXPECT_NO_THROW(bad.validate());

  bad = spec;
  bad.staging.memory_budget = 512ull << 20;
  EXPECT_NO_THROW(bad.validate());

  bad.staging.soft_watermark = 0;
  expect_rejected(bad, "soft_watermark");

  bad.staging.soft_watermark = 1.2;
  expect_rejected(bad, "soft_watermark");

  bad.staging.soft_watermark = 0.7;
  bad.staging.hard_watermark = 0;
  expect_rejected(bad, "hard_watermark");

  bad.staging.hard_watermark = 0.5;  // below soft
  expect_rejected(bad, "soft_watermark must be <=");
}

TEST(ValidateTest, UnsatisfiableResiliencePolicyRejected) {
  auto spec = table2_setup(Scheme::kUncoordinated);
  auto bad = spec;
  bad.server.policy.kind = resilience::Redundancy::kReplication;
  bad.server.policy.replicas = 1;
  expect_rejected(bad, "replicas");

  bad = spec;
  bad.server.policy.kind = resilience::Redundancy::kErasureCode;
  bad.server.policy.rs_k = 0;
  expect_rejected(bad, "rs_k");

  bad = spec;
  bad.server.policy.kind = resilience::Redundancy::kReplication;
  bad.server.policy.replicas = 2;
  bad.staging_servers = 1;
  expect_rejected(bad, "server");
}

}  // namespace
}  // namespace dstage::core
