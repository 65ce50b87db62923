// End-to-end consistency campaign, run under the ctest label `campaign`
// (CI runs a larger sweep via tools/campaign; this keeps a fast,
// deterministic slice in the default test suite).
#include <gtest/gtest.h>

#include "check/campaign.hpp"

namespace dstage::check {
namespace {

TEST(CampaignTest, MixedSchemeCampaignPassesAllInvariants) {
  CampaignOptions opts;
  opts.gen.count = 20;
  opts.gen.seed = 3;
  opts.threads = 2;
  const CampaignResult result = run_campaign(opts);
  EXPECT_EQ(result.schedules, 20);
  EXPECT_EQ(result.passed, 20);
  EXPECT_TRUE(result.ok());
  for (const CampaignFailure& f : result.failures) {
    ADD_FAILURE() << f.schedule.repro() << "\n" << f.report.summary();
  }
}

TEST(CampaignTest, VerdictIndependentOfThreadCount) {
  CampaignOptions opts;
  opts.gen.count = 12;
  opts.gen.seed = 11;
  opts.shrink = false;
  opts.threads = 1;
  const CampaignResult serial = run_campaign(opts);
  opts.threads = 4;
  const CampaignResult parallel = run_campaign(opts);
  EXPECT_EQ(serial.passed, parallel.passed);
  EXPECT_EQ(serial.totals, parallel.totals);
  ASSERT_EQ(serial.failures.size(), parallel.failures.size());
  for (std::size_t i = 0; i < serial.failures.size(); ++i) {
    EXPECT_EQ(serial.failures[i].schedule, parallel.failures[i].schedule);
  }
}

TEST(CampaignTest, MemoryGovernedCampaignExercisesSpillAndBackpressure) {
  // A 384 MB/server budget on the Table-II-sized campaign workload is
  // tight enough that both relief mechanisms fire (versions spilled to the
  // PFS, puts bounced with RetryLater) while every recovery invariant
  // still holds — the oracle's read-equivalence and durability checks run
  // against memory-governed references. Pressure is not monotone in the
  // budget, so it was picked by measurement: these 8 schedules bounce
  // 12,960 puts at 384 MB and 3,888 at 416 MB, but none at 512, 448, 352
  // or 320 MB (the last two spill enough to stay under the hard mark).
  CampaignOptions opts;
  opts.gen.count = 8;
  opts.gen.seed = 3;
  opts.gen.schemes = {core::Scheme::kUncoordinated, core::Scheme::kHybrid};
  opts.gen.memory_budget_mb = 384;
  opts.threads = 2;
  const CampaignResult result = run_campaign(opts);
  EXPECT_EQ(result.passed, 8);
  EXPECT_TRUE(result.ok());
  for (const CampaignFailure& f : result.failures) {
    ADD_FAILURE() << f.schedule.repro() << "\n" << f.report.summary();
  }
  EXPECT_GT(result.totals.at("governor.spill_versions"), 0u);
  EXPECT_GT(result.totals.at("governor.puts_rejected"), 0u);
  EXPECT_GT(result.totals.at("rpc.backpressure_waits"), 0u);
}

TEST(CampaignTest, SkipReplaySabotageFailsAndShrinks) {
  CampaignOptions opts;
  opts.gen.count = 12;
  opts.gen.seed = 1;
  // Logging schemes only: the sabotage disables their replay stage.
  opts.gen.schemes = {core::Scheme::kUncoordinated, core::Scheme::kHybrid};
  opts.threads = 2;
  opts.sabotage = Sabotage::kSkipReplay;
  opts.max_shrunk = 2;
  const CampaignResult result = run_campaign(opts);
  ASSERT_FALSE(result.ok());
  // The shrinker must deliver a small reproducer for the sabotage.
  bool small_repro = false;
  for (const CampaignFailure& f : result.failures) {
    EXPECT_FALSE(f.report.ok());
    if (f.shrink_attempts > 0 && f.shrunk.failures.size() <= 2) {
      small_repro = true;
    }
  }
  EXPECT_TRUE(small_repro);
}

}  // namespace
}  // namespace dstage::check
