// Elastic membership under the consistency oracle: the `;elastic=` repro
// field round-trips and survives shrinking, generated campaigns aim
// crashes into resilver windows, and the paper's 3 -> 5 -> 3 grow/shrink
// scenario passes every invariant with data moving the whole time.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <stdexcept>
#include <string>

#include "check/campaign.hpp"
#include "check/oracle.hpp"
#include "check/schedule.hpp"
#include "check/shrink.hpp"
#include "core/executor.hpp"

namespace dstage::check {
namespace {

TEST(CheckElasticTest, ReproRoundTripsElasticField) {
  Schedule s;
  s.id = 7;
  s.scheme = core::Scheme::kUncoordinated;
  s.total_ts = 12;
  s.resilience = 2;
  s.staging_servers = 3;
  s.elastic = {{3, true}, {5, true}, {8, false}, {10, false}};
  s.failures.push_back(ScheduleFailure{0, 3, 0.25, false, false});

  const std::string repro = s.repro();
  EXPECT_NE(repro.find(";ss=3"), std::string::npos);
  EXPECT_NE(repro.find(";elastic=j3,j5,r8,r10"), std::string::npos);
  EXPECT_EQ(Schedule::parse(repro), s);
}

TEST(CheckElasticTest, RetireDuringFragmentPushReproIsDeterministic) {
  // A retire lands while the owner is still pushing RS(2,1) fragments.
  // Fragment placement once reused the pre-retire view size after its
  // co_awaits and read past the shrunken view, so plain runs of this
  // schedule drifted between trace digests. The pinned digest is the one
  // placement over the live view gives; the out-of-bounds read gave others.
  //
  // Digest updated (was 0x6935f2cf8403784e) for an intentional change:
  // failover and coordinated restarts now trace their recovery. This Co
  // schedule's rollbacks emit recovery-start/recovery-done on the
  // "workflow" track; nothing else in the run moved.
  //
  // Digest updated again (was 0x22a7201e70191eb0) for an intentional
  // change: the put path no longer groups a re-placement round's pieces
  // per server (that grouping only existed for the deleted BatchPut
  // transport). Pieces bounced with wrong_epoch across this schedule's
  // join and retire now go out in per-box placement order; the new send
  // order shifts the timing of those re-sent puts.
  const Schedule s = Schedule::parse(
      "cc1;id=57;sch=co;ts=12;sp=3;ap=4;res=2;mtbf=1;elastic=j7,r8"
      ";f=1:7:0.44417586001904841:;f=0:10:0.64393891274561454:n"
      ";f=0:11:0.27701717915369706:n");
  std::set<std::uint64_t> digests;
  for (int run = 0; run < 40; ++run) {
    core::WorkflowRunner runner(s.to_spec());
    runner.run();
    digests.insert(runner.trace().digest());
  }
  EXPECT_EQ(digests.size(), 1u);
  EXPECT_EQ(*digests.begin(), 0x0c56a2f1e0e97a1cull);
}

TEST(CheckElasticTest, FixedGroupReproStaysStable) {
  // Pre-elastic repro strings must parse and re-serialize unchanged: the
  // new fields are emitted only when set. The retired `lp=0` they carry
  // parses and is left out of repro().
  const std::string legacy =
      "cc1;id=4;sch=un;ts=12;sp=3;ap=4;lp=0;res=1;mtbf=0"
      ";f=0:5:0.5:";
  const std::string current =
      "cc1;id=4;sch=un;ts=12;sp=3;ap=4;res=1;mtbf=0"
      ";f=0:5:0.5:";
  EXPECT_EQ(Schedule::parse(legacy).repro(), current);
  EXPECT_EQ(Schedule::parse(current).repro(), current);
  EXPECT_EQ(legacy.find("elastic"), std::string::npos);
}

TEST(CheckElasticTest, ParseRejectsMalformedElastic) {
  EXPECT_THROW(Schedule::parse("cc1;elastic=x3"), std::invalid_argument);
  EXPECT_THROW(Schedule::parse("cc1;elastic=j"), std::invalid_argument);
  EXPECT_THROW(Schedule::parse("cc1;elastic=j3,q9"), std::invalid_argument);
}

TEST(CheckElasticTest, GeneratorAimsCrashesIntoResilverWindows) {
  GenerateOptions opts;
  opts.count = 24;
  opts.seed = 5;
  opts.elastic_probability = 1.0;
  int with_failures = 0;
  for (const Schedule& s : generate_schedules(opts)) {
    ASSERT_EQ(s.elastic.size(), 2u) << s.repro();
    EXPECT_TRUE(s.elastic[0].join);
    EXPECT_FALSE(s.elastic[1].join);
    EXPECT_GE(s.elastic[0].ts, 2);
    EXPECT_LT(s.elastic[0].ts, s.elastic[1].ts);
    EXPECT_LE(s.elastic[1].ts, s.total_ts);
    if (!s.failures.empty()) {
      ++with_failures;
      // The first crash strikes the join timestep: mid-resilver.
      EXPECT_EQ(s.failures.front().ts, s.elastic[0].ts) << s.repro();
    }
  }
  EXPECT_GT(with_failures, 0);

  opts.elastic_probability = 0.0;
  for (const Schedule& s : generate_schedules(opts)) {
    EXPECT_TRUE(s.elastic.empty());
  }
}

TEST(CheckElasticTest, GrowShrinkScenarioPassesAllInvariants) {
  // The acceptance scenario as one pinned repro: a 3-server group grows to
  // 5 and shrinks back to 3 mid-workflow, with a crash striking during the
  // first join's resilver, under RS(2,1) redundancy.
  const Schedule s = Schedule::parse(
      "cc1;id=1;sch=un;ts=12;sp=3;ap=4;lp=0;res=2;mtbf=0;ss=3"
      ";elastic=j2,j4,r7,r9;f=0:2:0.5:");
  ReferenceCache cache;
  const OracleReport report = check_schedule(s, cache);
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(report.failures_injected, 1);
  EXPECT_EQ(report.metrics.staging.membership_epoch, 4u);
  EXPECT_GT(report.metrics.staging.resilver_chunks_moved, 0u);
  EXPECT_GT(report.resilver_drops, 0u);
}

TEST(CheckElasticTest, ElasticCampaignPassesWithDataInMotion) {
  CampaignOptions opts;
  opts.gen.count = 10;
  opts.gen.seed = 3;
  opts.gen.elastic_probability = 1.0;
  opts.gen.schemes = {core::Scheme::kUncoordinated, core::Scheme::kHybrid};
  opts.threads = 2;
  const CampaignResult result = run_campaign(opts);
  EXPECT_EQ(result.passed, 10);
  EXPECT_TRUE(result.ok());
  for (const CampaignFailure& f : result.failures) {
    ADD_FAILURE() << f.schedule.repro() << "\n" << f.report.summary();
  }
  // The episodes must have really exercised elasticity: fragments moved
  // and every hand-off release passed the durability audit.
  EXPECT_GT(result.totals.at("elastic.resilver_chunks"), 0u);
  EXPECT_GT(result.totals.at("check.resilver_drops"), 0u);
}

TEST(CheckElasticTest, ShrinkerPreservesElasticField) {
  // Sabotaged elastic schedules must shrink without losing the membership
  // events: the crash stays aimed into the resilver window all the way to
  // the minimal reproducer.
  CampaignOptions opts;
  opts.gen.count = 8;
  opts.gen.seed = 1;
  opts.gen.elastic_probability = 1.0;
  opts.gen.schemes = {core::Scheme::kUncoordinated};
  opts.threads = 2;
  opts.sabotage = Sabotage::kSkipReplay;
  opts.max_shrunk = 2;
  const CampaignResult result = run_campaign(opts);
  ASSERT_FALSE(result.ok());
  int shrunk_seen = 0;
  for (const CampaignFailure& f : result.failures) {
    if (f.shrink_attempts == 0) continue;
    ++shrunk_seen;
    EXPECT_EQ(f.shrunk.elastic, f.schedule.elastic);
    EXPECT_NE(f.shrunk.repro().find(";elastic="), std::string::npos)
        << f.shrunk.repro();
  }
  EXPECT_GT(shrunk_seen, 0);
}

TEST(CheckElasticTest, ShrunkReproAnchorsStillCatchSabotage) {
  // Two shrunk reproducers from sabotaged elastic campaigns, pinned as
  // regression anchors: each must keep failing its oracle invariant under
  // the sabotage that produced it, and pass clean without it.
  const char* anchors[] = {
      "cc1;id=0;sch=un;ts=12;sp=4;ap=5;res=1;mtbf=1"
      ";elastic=j7,r11;f=0:1:0.5:",
      "cc1;id=2;sch=un;ts=12;sp=2;ap=2;lp=0;res=2;mtbf=1"
      ";elastic=j4,r9;f=0:1:0.5:",
  };
  ReferenceCache cache;
  for (const char* anchor : anchors) {
    const Schedule s = Schedule::parse(anchor);
    ASSERT_EQ(s.elastic.size(), 2u);
    const OracleReport sabotaged =
        check_schedule(s, cache, Sabotage::kSkipReplay);
    EXPECT_FALSE(sabotaged.ok()) << anchor;
    const OracleReport clean = check_schedule(s, cache);
    EXPECT_TRUE(clean.ok()) << anchor << "\n" << clean.summary();
  }
}

}  // namespace
}  // namespace dstage::check
