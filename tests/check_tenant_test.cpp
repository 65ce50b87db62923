// Multi-tenant checking layer: expand_tenants() spec surgery, the
// `;tenants=` repro-string round-trip, and the oracle's tenant-isolation
// invariant (6) — a bystander tenant's reads must be bit-for-bit what its
// solo run observes, across failures, GC, and spills injected at tenant 0.
#include <gtest/gtest.h>

#include <string>

#include "check/campaign.hpp"
#include "check/oracle.hpp"
#include "check/schedule.hpp"
#include "core/multi_tenant.hpp"
#include "core/setups.hpp"
#include "core/workflow.hpp"

namespace dstage::check {
namespace {

TEST(ExpandTenantsTest, ClonesComponentsAndKeepsTenantZeroNamesFirst) {
  auto spec = core::table2_setup(core::Scheme::kUncoordinated);
  const auto solo_components = spec.components.size();
  const std::string first_name = spec.components.front().name;

  spec.tenancy.tenants = 3;
  spec.tenancy.fair_share = true;
  core::expand_tenants(spec);

  ASSERT_EQ(spec.components.size(), 3 * solo_components);
  // Tenant 0 comes first with original names: pre-expansion component
  // indices and trace names stay valid.
  EXPECT_EQ(spec.components.front().name, first_name);
  EXPECT_EQ(spec.components.front().tenant, 0);
  // Tenant t > 0 clones carry the @t suffix and their tenant stamp.
  const auto& clone = spec.components[solo_components];
  EXPECT_NE(clone.name.find(core::tenant_suffix(1)), std::string::npos);
  EXPECT_EQ(clone.tenant, 1);
  // fair_share with empty weights: equal weights over all tenants, and
  // forwarded to the staging governor.
  ASSERT_EQ(spec.tenancy.weights.size(), 3u);
  EXPECT_EQ(spec.tenancy.weights.at(0), spec.tenancy.weights.at(2));
  EXPECT_EQ(spec.staging.tenant_weights.size(), 3u);

  // Idempotent: a second expansion is a no-op.
  core::expand_tenants(spec);
  EXPECT_EQ(spec.components.size(), 3 * solo_components);
}

TEST(ExpandTenantsTest, SingleTenantSpecIsUntouched) {
  auto spec = core::table2_setup(core::Scheme::kUncoordinated);
  const auto before = spec.components.size();
  core::expand_tenants(spec);
  EXPECT_EQ(spec.components.size(), before);
  EXPECT_FALSE(spec.tenancy.expanded);
  EXPECT_TRUE(spec.staging.tenant_weights.empty());
}

TEST(ScheduleTenantTest, ReproStringRoundTripsTenants) {
  GenerateOptions gen;
  gen.count = 4;
  gen.seed = 9;
  gen.tenants = 3;
  const auto schedules = generate_schedules(gen);
  ASSERT_FALSE(schedules.empty());
  for (const Schedule& s : schedules) {
    EXPECT_EQ(s.tenants, 3);
    const std::string repro = s.repro();
    EXPECT_NE(repro.find(";tenants=3"), std::string::npos);
    EXPECT_EQ(Schedule::parse(repro), s);
  }
  // Single-tenant schedules serialize exactly as before the field existed
  // (old repro strings keep replaying byte-identically).
  gen.tenants = 1;
  for (const Schedule& s : generate_schedules(gen)) {
    EXPECT_EQ(s.repro().find(";tenants="), std::string::npos);
  }
}

TEST(OracleTenantTest, MultiTenantCampaignChecksIsolationAndPasses) {
  // Failures target tenant 0, so tenants 1..N-1 are provable bystanders;
  // invariant 6 rebases every bystander read onto the solo-run reference.
  CampaignOptions opts;
  opts.gen.count = 10;
  opts.gen.seed = 5;
  opts.gen.tenants = 2;
  opts.threads = 2;
  const CampaignResult result = run_campaign(opts);
  EXPECT_EQ(result.passed, 10);
  EXPECT_TRUE(result.ok());
  for (const CampaignFailure& f : result.failures) {
    ADD_FAILURE() << f.schedule.repro() << "\n" << f.report.summary();
  }
  // The isolation invariant must have actually compared bystander reads —
  // a vacuous pass (zero comparisons) is a checker bug, and tools/campaign
  // --require=check.isolation_reads gates on exactly this counter.
  EXPECT_GT(result.totals.at("check.isolation_reads"), 0u);
  EXPECT_GT(result.totals.at("core.failures_injected"), 0u);
}

TEST(OracleTenantTest, SabotageIsCaughtUnderMultiTenancy) {
  // The oracle must stay sharp with tenants attached: a scheme sabotaged
  // into skipping replay still fails the campaign, and the shrunk repro
  // preserves the tenant count (the bug only manifests in this topology).
  CampaignOptions opts;
  opts.gen.count = 6;
  opts.gen.seed = 1;
  opts.gen.tenants = 2;
  opts.gen.schemes = {core::Scheme::kUncoordinated, core::Scheme::kHybrid};
  opts.threads = 2;
  opts.sabotage = Sabotage::kSkipReplay;
  opts.max_shrunk = 1;
  const CampaignResult result = run_campaign(opts);
  ASSERT_FALSE(result.ok());
  for (const CampaignFailure& f : result.failures) {
    EXPECT_EQ(f.schedule.tenants, 2);
    EXPECT_NE(f.schedule.repro().find(";tenants=2"), std::string::npos);
  }
}

}  // namespace
}  // namespace dstage::check
