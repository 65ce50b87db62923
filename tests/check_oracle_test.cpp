#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "check/oracle.hpp"
#include "check/schedule.hpp"
#include "check/shrink.hpp"
#include "core/executor.hpp"

namespace dstage::check {
namespace {

Schedule basic_un_schedule() {
  Schedule s;
  s.scheme = core::Scheme::kUncoordinated;
  s.total_ts = 12;
  s.sim_period = 3;
  s.analytic_period = 4;
  return s;
}

TEST(ScheduleTest, ReproRoundTripsEveryGeneratedSchedule) {
  GenerateOptions opts;
  opts.count = 60;
  opts.seed = 9;
  for (const Schedule& s : generate_schedules(opts)) {
    const std::string line = s.repro();
    EXPECT_EQ(Schedule::parse(line), s) << line;
  }
}

TEST(ScheduleTest, GeneratorIsDeterministicPerSeed) {
  GenerateOptions opts;
  opts.count = 25;
  opts.seed = 4;
  const auto a = generate_schedules(opts);
  const auto b = generate_schedules(opts);
  EXPECT_EQ(a, b);
  opts.seed = 5;
  EXPECT_NE(generate_schedules(opts), a);
}

TEST(ScheduleTest, GeneratorRespectsSchemePoolAndBounds) {
  GenerateOptions opts;
  opts.count = 40;
  opts.seed = 2;
  opts.max_failures = 3;
  opts.schemes = {core::Scheme::kHybrid, core::Scheme::kIndividual};
  for (const Schedule& s : generate_schedules(opts)) {
    EXPECT_TRUE(s.scheme == core::Scheme::kHybrid ||
                s.scheme == core::Scheme::kIndividual);
    EXPECT_LE(s.failures.size(), 3u);
    for (const ScheduleFailure& f : s.failures) {
      EXPECT_GE(f.ts, 1);
      EXPECT_LE(f.ts, s.total_ts);
      EXPECT_TRUE(f.comp == 0 || f.comp == 1);
    }
    // Every generated schedule must survive spec validation.
    EXPECT_NO_THROW(s.to_spec().validate());
  }
}

TEST(ScheduleTest, MemoryBudgetRoundTripsAndGatesTheSpec) {
  // mb= is part of the schedule's identity (it changes the reference run),
  // round-trips through the repro string, and is omitted when zero so
  // pre-governor repro strings stay byte-stable.
  Schedule s = basic_un_schedule();
  EXPECT_EQ(s.repro().find(";mb="), std::string::npos);
  EXPECT_EQ(s.to_spec().staging.memory_budget, 0u);

  s.memory_budget_mb = 512;
  const std::string line = s.repro();
  EXPECT_NE(line.find(";mb=512"), std::string::npos);
  const Schedule parsed = Schedule::parse(line);
  EXPECT_EQ(parsed, s);
  EXPECT_EQ(parsed.to_spec().staging.memory_budget, 512ull << 20);

  GenerateOptions opts;
  opts.count = 10;
  opts.seed = 9;
  opts.memory_budget_mb = 768;
  for (const Schedule& g : generate_schedules(opts)) {
    EXPECT_EQ(g.memory_budget_mb, 768);
    EXPECT_EQ(Schedule::parse(g.repro()), g);
  }
}

TEST(ScheduleTest, CodecRoundTripsAndArmsTheSpec) {
  // codec= is part of the schedule's identity (a codec-armed run gets its
  // own reference), round-trips through the repro string, and is omitted
  // for kNone so pre-codec repro strings stay byte-stable.
  Schedule s = basic_un_schedule();
  EXPECT_EQ(s.repro().find(";codec="), std::string::npos);
  EXPECT_EQ(s.to_spec().wlog.codec, wlog::codec::Scheme::kNone);

  s.codec = wlog::codec::Scheme::kDeltaLz;
  const std::string line = s.repro();
  EXPECT_NE(line.find(";codec=delta_lz"), std::string::npos);
  const Schedule parsed = Schedule::parse(line);
  EXPECT_EQ(parsed, s);
  EXPECT_EQ(parsed.to_spec().wlog.codec, wlog::codec::Scheme::kDeltaLz);

  // Unknown scheme names are loud, not silently kNone.
  std::string bad = line;
  bad.replace(bad.find("delta_lz"), 8, "zip");
  EXPECT_THROW(Schedule::parse(bad), std::invalid_argument);

  GenerateOptions opts;
  opts.count = 9;
  opts.seed = 3;
  opts.codec = wlog::codec::Scheme::kLz;
  for (const Schedule& g : generate_schedules(opts)) {
    EXPECT_EQ(g.codec, wlog::codec::Scheme::kLz);
    EXPECT_EQ(Schedule::parse(g.repro()), g);
  }
  opts.codec_mix = true;
  bool saw_delta = false;
  for (const Schedule& g : generate_schedules(opts)) {
    EXPECT_NE(g.codec, wlog::codec::Scheme::kNone);
    saw_delta = saw_delta || g.codec == wlog::codec::Scheme::kDelta ||
                g.codec == wlog::codec::Scheme::kDeltaLz;
    EXPECT_EQ(Schedule::parse(g.repro()), g);
  }
  EXPECT_TRUE(saw_delta);
}

TEST(ScheduleTest, ParseRejectsMalformedInput) {
  EXPECT_THROW(Schedule::parse(""), std::invalid_argument);
  EXPECT_THROW(Schedule::parse("cc2;sch=un"), std::invalid_argument);
  EXPECT_THROW(Schedule::parse("cc1;sch=xx"), std::invalid_argument);
  EXPECT_THROW(Schedule::parse("cc1;bogus=1"), std::invalid_argument);
  EXPECT_THROW(Schedule::parse("cc1;ts=abc"), std::invalid_argument);
  EXPECT_THROW(Schedule::parse("cc1;f=1:2:0.5"), std::invalid_argument);
  EXPECT_THROW(Schedule::parse("cc1;f=1:2:0.5:z"), std::invalid_argument);
  // Fields to_spec() applies only when set must not fall back to the
  // default configuration silently: the error names the field.
  for (const auto& [repro, field] :
       {std::pair{"cc1;tenants=0", "tenants"}, std::pair{"cc1;mb=-5", "mb"},
        std::pair{"cc1;ss=-2", "ss"}, std::pair{"cc1;ckpt=-1", "ckpt"}}) {
    try {
      (void)Schedule::parse(repro);
      ADD_FAILURE() << repro << " parsed";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << e.what();
    }
  }
}

TEST(ScheduleTest, ValidateRejectsOutOfRangeExplicitFailures) {
  Schedule s = basic_un_schedule();
  s.failures.push_back({.comp = 5, .ts = 3});
  EXPECT_THROW(s.to_spec().validate(), std::invalid_argument);
  s.failures.clear();
  s.failures.push_back({.comp = 0, .ts = 99});
  EXPECT_THROW(s.to_spec().validate(), std::invalid_argument);
  // A NaN phase (repro "f=0:3:nan:") is an input error, not a run.
  s.failures.clear();
  s.failures.push_back(
      {.comp = 0, .ts = 3, .phase = std::numeric_limits<double>::quiet_NaN()});
  EXPECT_THROW(s.to_spec().validate(), std::invalid_argument);
}

TEST(OracleTest, FailureFreeSchedulesPassForEveryScheme) {
  ReferenceCache cache;
  const core::Scheme schemes[] = {
      core::Scheme::kNone,          core::Scheme::kCoordinated,
      core::Scheme::kUncoordinated, core::Scheme::kIndividual,
      core::Scheme::kHybrid,
  };
  for (core::Scheme scheme : schemes) {
    Schedule s = basic_un_schedule();
    s.scheme = scheme;
    const OracleReport report = check_schedule(s, cache);
    EXPECT_TRUE(report.ok()) << report.summary();
    EXPECT_EQ(report.failures_injected, 0);
    // With nothing injected, the run must be bit-identical to the
    // reference it is judged against.
    EXPECT_EQ(report.trace_digest, report.reference_digest);
  }
}

TEST(OracleTest, ExplicitPlanDrivesExactlyThePlannedFailures) {
  ReferenceCache cache;
  Schedule s = basic_un_schedule();
  s.failures.push_back({.comp = 0, .ts = 5, .phase = 0.4});
  s.failures.push_back(
      {.comp = 1, .ts = 8, .phase = 0.7, .node_level = true});
  s.failures.push_back({.comp = 0, .ts = 10, .phase = -1.0,
                        .predicted = true});  // false alarm
  const OracleReport report = check_schedule(s, cache);
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(report.failures_injected, 2);
  EXPECT_EQ(report.alarms_fired, 1);
  EXPECT_NE(report.trace_digest, report.reference_digest);
}

TEST(OracleTest, VerdictIsDeterministic) {
  ReferenceCache cache;
  Schedule s = basic_un_schedule();
  s.ckpt_group = 2;
  s.resilience = 1;
  s.failures.push_back({.comp = 1, .ts = 6, .phase = 0.5,
                        .node_level = true});
  const OracleReport a = check_schedule(s, cache);
  const OracleReport b = check_schedule(s, cache);
  EXPECT_EQ(a.ok(), b.ok());
  EXPECT_EQ(a.trace_digest, b.trace_digest);
  EXPECT_EQ(a.violations.size(), b.violations.size());
}

// Regression anchors: the two genuine crash-consistency bugs the campaign
// found in the retired node-local checkpoint level. Both repros were
// verbatim shrinker output from the failing runs, which also carried
// `lp=2`; the grammar now rejects that field, so each anchor keeps the
// rest of its schedule. With no node-local level left to fall back from,
// neither anchor reaches its bug any more: each guard is pinned on the
// staging rig instead (see the test named in each comment). The anchors
// stay as whole-run checks of their schedules.
//
// Bug 1: node-local checkpoints advanced the staging GC watermark; a node
// failure falls back to the PFS checkpoint, so GC had reclaimed logged
// versions the fallback replay still needed — the consumer deadlocked.
// Guard: StagingRtTest.NonDurableCheckpointReclaimsNothing.
TEST(OracleTest, RegressionNodeLocalCheckpointMustNotAdvanceWatermark) {
  ReferenceCache cache;
  const Schedule s = Schedule::parse(
      "cc1;id=29;sch=un;ts=12;sp=3;ap=4;res=1;mtbf=0;f=1:4:0.5:n");
  const OracleReport report = check_schedule(s, cache);
  EXPECT_TRUE(report.ok()) << report.summary();
}

// Bug 2: the server's get-replay matcher ignored the version, so after a
// cross-level fallback restart the replay script served newer versions
// for re-reads of older timesteps (wrong-version anomalies on one
// server's pieces).
// Guard: StagingRtTest.ReplayedGetMatchesTheVersion.
TEST(OracleTest, RegressionReplayedGetMustMatchVersion) {
  ReferenceCache cache;
  const Schedule s = Schedule::parse(
      "cc1;id=438;sch=un;ts=12;sp=3;ap=5;res=2;mtbf=1;f=1:4:0.5:n");
  const OracleReport report = check_schedule(s, cache);
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(OracleTest, SkipReplaySabotageIsCaughtAndShrinksToOneFailure) {
  ReferenceCache cache;
  Schedule s = basic_un_schedule();
  s.failures.push_back({.comp = 0, .ts = 4, .phase = 0.3});
  s.failures.push_back({.comp = 1, .ts = 7, .phase = 0.6});
  s.failures.push_back({.comp = 0, .ts = 10, .phase = 0.8});
  const OracleReport report =
      check_schedule(s, cache, Sabotage::kSkipReplay);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(std::any_of(
      report.violations.begin(), report.violations.end(),
      [](const Violation& v) { return v.invariant == 4 || v.invariant == 2; }))
      << report.summary();

  const ShrinkResult shrunk =
      shrink_schedule(s, cache, Sabotage::kSkipReplay);
  ASSERT_FALSE(shrunk.report.ok());
  EXPECT_LE(shrunk.minimal.failures.size(), 2u);
  EXPECT_GE(shrunk.minimal.failures.size(), 1u);
  EXPECT_GT(shrunk.attempts, 0);
  // The minimal schedule still re-runs to the same verdict from scratch.
  ReferenceCache fresh;
  EXPECT_FALSE(
      check_schedule(Schedule::parse(shrunk.minimal.repro()), fresh,
                     Sabotage::kSkipReplay)
          .ok());
}

TEST(OracleTest, GcOvercollectSabotageIsCaughtAsRetentionViolation) {
  ReferenceCache cache;
  Schedule s = basic_un_schedule();
  s.failures.push_back({.comp = 1, .ts = 6, .phase = 0.5});
  const OracleReport report =
      check_schedule(s, cache, Sabotage::kGcOvercollect);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(std::any_of(report.violations.begin(), report.violations.end(),
                          [](const Violation& v) { return v.invariant == 3; }))
      << report.summary();
}

TEST(OracleTest, ShrinkerLeavesPassingSchedulesAlone) {
  ReferenceCache cache;
  Schedule s = basic_un_schedule();
  s.failures.push_back({.comp = 0, .ts = 5, .phase = 0.5});
  const ShrinkResult result = shrink_schedule(s, cache, Sabotage::kNone);
  EXPECT_TRUE(result.report.ok());
  EXPECT_EQ(result.minimal, s);
}

TEST(OracleTest, SabotageNamesRoundTrip) {
  EXPECT_EQ(parse_sabotage(sabotage_name(Sabotage::kNone)), Sabotage::kNone);
  EXPECT_EQ(parse_sabotage(sabotage_name(Sabotage::kSkipReplay)),
            Sabotage::kSkipReplay);
  EXPECT_EQ(parse_sabotage(sabotage_name(Sabotage::kGcOvercollect)),
            Sabotage::kGcOvercollect);
  EXPECT_THROW(parse_sabotage("bogus"), std::invalid_argument);
}

}  // namespace
}  // namespace dstage::check
