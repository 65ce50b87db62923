// Multi-level checkpoint hierarchy under the consistency oracle: the
// `;ckpt=` repro field round-trips and survives shrinking, generated
// campaigns draw XOR groups from {2, 3, 4}, and a pinned scenario restarts
// from the cache AND a partner rebuild with every invariant holding —
// restart-from-cache ≡ restart-from-PFS, machine-checked.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "check/campaign.hpp"
#include "check/oracle.hpp"
#include "check/schedule.hpp"
#include "check/shrink.hpp"

namespace dstage::check {
namespace {

TEST(CheckCkptTest, ReproRoundTripsCkptField) {
  Schedule s;
  s.id = 9;
  s.scheme = core::Scheme::kUncoordinated;
  s.total_ts = 12;
  s.resilience = 1;
  s.ckpt_group = 3;
  s.failures.push_back(ScheduleFailure{0, 4, 0.25, true, false});

  const std::string repro = s.repro();
  EXPECT_NE(repro.find(";ckpt=3"), std::string::npos);
  EXPECT_EQ(Schedule::parse(repro), s);

  // The field composes with the other optional fields.
  s.staging_servers = 3;
  s.elastic = {{3, true}, {8, false}};
  EXPECT_EQ(Schedule::parse(s.repro()), s);
  EXPECT_EQ(Schedule::parse(s.repro()).ckpt_group, 3);
}

TEST(CheckCkptTest, HierarchyOffReproStaysStable) {
  // Pre-hierarchy repro strings must parse and re-serialize unchanged: the
  // `;ckpt=` field is emitted only when set. The retired `lp=0` they carry
  // parses and is left out of repro().
  const std::string legacy =
      "cc1;id=4;sch=un;ts=12;sp=3;ap=4;lp=0;res=1;mtbf=0"
      ";f=0:5:0.5:";
  const std::string current =
      "cc1;id=4;sch=un;ts=12;sp=3;ap=4;res=1;mtbf=0"
      ";f=0:5:0.5:";
  EXPECT_EQ(Schedule::parse(legacy).repro(), current);
  EXPECT_EQ(Schedule::parse(current).repro(), current);
  EXPECT_EQ(Schedule::parse(legacy), Schedule::parse(current));
  EXPECT_EQ(Schedule::parse(legacy).ckpt_group, 0);
  EXPECT_EQ(legacy.find("ckpt"), std::string::npos);
}

TEST(CheckCkptTest, ParseRejectsRetiredNodeLocalPeriod) {
  // The hierarchy's cache is the only node-local checkpoint level: a repro
  // that asks for the retired one fails loudly and names its replacement.
  try {
    (void)Schedule::parse("cc1;id=29;sch=un;ts=12;sp=3;ap=4;lp=2;res=1");
    ADD_FAILURE() << "lp=2 parsed";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("ckpt=<group>"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(Schedule::parse("cc1;lp=1"), std::invalid_argument);
  EXPECT_THROW(Schedule::parse("cc1;lp=-1"), std::invalid_argument);
  EXPECT_THROW(Schedule::parse("cc1;lp=x"), std::invalid_argument);
  EXPECT_NO_THROW(Schedule::parse("cc1;lp=0"));
}

TEST(CheckCkptTest, ParseRejectsMalformedCkpt) {
  EXPECT_THROW(Schedule::parse("cc1;ckpt=x"), std::invalid_argument);
  EXPECT_THROW(Schedule::parse("cc1;ckpt="), std::invalid_argument);
  // An out-of-range group parses but is rejected by spec validation when
  // the schedule is materialized.
  const Schedule s = Schedule::parse("cc1;id=0;sch=un;ts=12;sp=3;ap=4;lp=0"
                                     ";res=0;mtbf=0;ckpt=1");
  EXPECT_THROW(s.to_spec().validate(), std::invalid_argument);
}

TEST(CheckCkptTest, GeneratorDrawsGroupsFromTwoToFour) {
  GenerateOptions opts;
  opts.count = 24;
  opts.seed = 5;
  opts.ckpt_probability = 1.0;
  for (const Schedule& s : generate_schedules(opts)) {
    EXPECT_GE(s.ckpt_group, 2) << s.repro();
    EXPECT_LE(s.ckpt_group, 4) << s.repro();
  }

  // Off by default — and the random stream is unchanged when off.
  opts.ckpt_probability = 0.0;
  for (const Schedule& s : generate_schedules(opts)) {
    EXPECT_EQ(s.ckpt_group, 0);
  }
}

TEST(CheckCkptTest, CacheAndPartnerRestartScenarioPassesAllInvariants) {
  // The acceptance scenario as one pinned repro: a process failure restarts
  // from the node-local cache, a later node failure restarts via an XOR
  // partner rebuild — both byte-verified, all invariants green.
  const Schedule s = Schedule::parse(
      "cc1;id=1;sch=un;ts=12;sp=3;ap=4;lp=0;res=0;mtbf=0;ckpt=3"
      ";f=0:5:0.5:;f=0:10:0.5:n");
  ReferenceCache cache;
  const OracleReport report = check_schedule(s, cache);
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(report.failures_injected, 2);
  EXPECT_GT(report.metrics.ckpt.drains_completed, 0u);
  EXPECT_GT(report.metrics.ckpt.cache_restarts, 0u);
  EXPECT_GT(report.metrics.ckpt.partner_rebuilds, 0u);
}

TEST(CheckCkptTest, HierarchyCampaignPassesWithFastRestartsExercised) {
  CampaignOptions opts;
  opts.gen.count = 12;
  opts.gen.seed = 3;
  opts.gen.ckpt_probability = 1.0;
  opts.gen.schemes = {core::Scheme::kUncoordinated, core::Scheme::kHybrid};
  opts.threads = 2;
  const CampaignResult result = run_campaign(opts);
  EXPECT_EQ(result.passed, 12);
  EXPECT_TRUE(result.ok());
  for (const CampaignFailure& f : result.failures) {
    ADD_FAILURE() << f.schedule.repro() << "\n" << f.report.summary();
  }
  // The hierarchy must really have been exercised: sets drained durable in
  // the background and restarts were served by the fast levels.
  EXPECT_GT(result.totals.at("ckpt.drains"), 0u);
  EXPECT_GT(result.totals.at("ckpt.cache_restarts"), 0u);
  EXPECT_GT(result.totals.at("ckpt.partner_rebuilds"), 0u);
}

TEST(CheckCkptTest, ShrinkerPreservesCkptField) {
  // Sabotaged hierarchy schedules must shrink without losing the `;ckpt=`
  // field: the minimal reproducer still runs the hierarchy.
  CampaignOptions opts;
  opts.gen.count = 8;
  opts.gen.seed = 1;
  opts.gen.ckpt_probability = 1.0;
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
    EXPECT_EQ(f.shrunk.ckpt_group, f.schedule.ckpt_group);
    EXPECT_NE(f.shrunk.repro().find(";ckpt="), std::string::npos)
        << f.shrunk.repro();
  }
  EXPECT_GT(shrunk_seen, 0);
}

TEST(CheckCkptTest, ShrunkReproAnchorsStillCatchSabotage) {
  // Two shrunk reproducers from sabotaged hierarchy campaigns, pinned as
  // regression anchors: each must keep failing its oracle invariant under
  // the sabotage that produced it, and pass clean without it.
  const char* anchors[] = {
      "cc1;id=0;sch=un;ts=12;sp=2;ap=3;lp=0;res=0;mtbf=0;ckpt=3"
      ";f=0:1:0.5:",
      "cc1;id=2;sch=un;ts=12;sp=3;ap=4;res=1;mtbf=0;ckpt=2"
      ";f=0:1:0.5:n",
  };
  ReferenceCache cache;
  for (const char* anchor : anchors) {
    const Schedule s = Schedule::parse(anchor);
    ASSERT_GE(s.ckpt_group, 2);
    const OracleReport sabotaged =
        check_schedule(s, cache, Sabotage::kSkipReplay);
    EXPECT_FALSE(sabotaged.ok()) << anchor;
    const OracleReport clean = check_schedule(s, cache);
    EXPECT_TRUE(clean.ok()) << anchor << "\n" << clean.summary();
  }
}

}  // namespace
}  // namespace dstage::check
