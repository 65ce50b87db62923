#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "core/executor.hpp"
#include "core/setups.hpp"

namespace dstage::core {
namespace {

using obs::Kind;
using obs::Trace;
using obs::TraceEvent;
using obs::TraceView;

TEST(TraceTest, RecordAndQuery) {
  Trace t;
  t.record(sim::TimePoint{} + sim::seconds(1), Kind::kTimestepStart,
           "sim", 1);
  t.record(sim::TimePoint{} + sim::seconds(2), Kind::kWriteDone, "sim",
           1, 4096);
  t.record(sim::TimePoint{} + sim::seconds(3), Kind::kTimestepStart,
           "analytic", 1);
  EXPECT_EQ(t.size(), 3u);
  EXPECT_EQ(t.of_kind(Kind::kTimestepStart).size(), 2u);
  EXPECT_EQ(t.of_component("sim").size(), 2u);
  EXPECT_EQ(t.of_kind(Kind::kWriteDone)[0].value, 4096);
}

TEST(TraceTest, DigestDistinguishesContentAndOrder) {
  Trace a, b, c;
  a.record({}, Kind::kFailure, "x", 3);
  a.record({}, Kind::kRecoveryDone, "x", 2);
  b.record({}, Kind::kRecoveryDone, "x", 2);
  b.record({}, Kind::kFailure, "x", 3);
  c.record({}, Kind::kFailure, "x", 3);
  c.record({}, Kind::kRecoveryDone, "x", 2);
  EXPECT_NE(a.digest(), b.digest());  // order matters
  EXPECT_EQ(a.digest(), c.digest());  // identical content matches
}

TEST(TraceTest, CsvRoundTripShape) {
  Trace t;
  t.record(sim::TimePoint{} + sim::milliseconds(1500),
           Kind::kCheckpoint, "sim", 4);
  std::ostringstream os;
  t.write_csv(os);
  EXPECT_EQ(os.str(),
            "time_s,kind,component,timestep,value\n"
            "1.5,checkpoint,sim,4,0\n");
}

TEST(TraceTest, KindNamesAreUnique) {
  std::set<std::string> names;
  for (std::size_t k = 0; k < obs::kKindCount; ++k) {
    names.insert(obs::kind_name(static_cast<Kind>(k)));
  }
  EXPECT_EQ(names.size(), obs::kKindCount);
}

TEST(TraceTest, ViewsAreLazyAndIterable) {
  Trace t;
  t.record(sim::TimePoint{} + sim::seconds(1), Kind::kGcSweep, "s0", 4,
           100);
  t.record(sim::TimePoint{} + sim::seconds(2), Kind::kGcWatermark,
           "s0/field", 0, 4);
  t.record(sim::TimePoint{} + sim::seconds(3), Kind::kGcSweep, "s1", 4,
           200);

  // Range-for over a filtered view visits matching events in trace order.
  std::int64_t reclaimed = 0;
  for (const TraceEvent& e : t.of_kind(Kind::kGcSweep)) {
    reclaimed += e.value;
  }
  EXPECT_EQ(reclaimed, 300);

  const TraceView sweeps = t.of_kind(Kind::kGcSweep);
  EXPECT_EQ(sweeps.size(), 2u);
  EXPECT_EQ(sweeps.front().component, "s0");
  EXPECT_EQ(sweeps.back().component, "s1");
  EXPECT_EQ(sweeps[1].value, 200);

  EXPECT_TRUE(t.of_kind(Kind::kLogTruncate).empty());
  EXPECT_TRUE(t.of_component("nope").empty());
  EXPECT_EQ(t.of_component("s0/field").size(), 1u);
}

WorkflowSpec spec_for_trace(int failures, std::uint64_t seed) {
  WorkflowSpec spec = table2_setup(Scheme::kUncoordinated);
  spec.total_ts = 10;
  spec.failures.count = failures;
  spec.failures.seed = seed;
  return spec;
}

TEST(TraceIntegrationTest, FailureFreeRunTimelineIsComplete) {
  WorkflowRunner runner(spec_for_trace(0, 1));
  runner.run();
  const Trace& t = runner.trace();
  // Every component starts and finishes every timestep exactly once.
  EXPECT_EQ(t.of_kind(Kind::kTimestepStart).size(), 20u);
  EXPECT_EQ(t.of_kind(Kind::kTimestepDone).size(), 20u);
  EXPECT_TRUE(t.of_kind(Kind::kFailure).empty());
  // Timestamps are monotone within a component.
  auto sim_events = t.of_component("simulation");
  for (std::size_t i = 1; i < sim_events.size(); ++i) {
    EXPECT_LE(sim_events[i - 1].at.ns, sim_events[i].at.ns);
  }
}

TEST(TraceIntegrationTest, FailureRunRecordsRecoverySequence) {
  WorkflowRunner runner(spec_for_trace(1, 6));  // simulation fails
  runner.run();
  const Trace& t = runner.trace();
  auto failures = t.of_kind(Kind::kFailure);
  auto rec_start = t.of_kind(Kind::kRecoveryStart);
  auto rec_done = t.of_kind(Kind::kRecoveryDone);
  auto replay = t.of_kind(Kind::kReplayDone);
  ASSERT_EQ(failures.size(), 1u);
  ASSERT_EQ(rec_start.size(), 1u);
  ASSERT_EQ(rec_done.size(), 1u);
  ASSERT_EQ(replay.size(), 1u);
  // Fig. 7(b) ordering: failure -> detection/recovery -> replay.
  EXPECT_LT(failures[0].at.ns, rec_start[0].at.ns);
  EXPECT_LT(rec_start[0].at.ns, rec_done[0].at.ns);
  EXPECT_LE(rec_done[0].at.ns, replay[0].at.ns);
  EXPECT_GT(replay[0].value, 0);  // events were queued for replay
}

// A coordinated rollback is a whole-workflow recovery: it traces its one
// start/done pair on the "workflow" track, after the failure it answers.
TEST(TraceIntegrationTest, CoordinatedRestartTracesOnePairOnWorkflowTrack) {
  WorkflowSpec spec = spec_for_trace(1, 6);
  spec.scheme = Scheme::kCoordinated;
  WorkflowRunner runner(std::move(spec));
  runner.run();
  const Trace& t = runner.trace();
  auto failures = t.of_kind(Kind::kFailure);
  auto rec_start = t.of_kind(Kind::kRecoveryStart);
  auto rec_done = t.of_kind(Kind::kRecoveryDone);
  ASSERT_EQ(failures.size(), 1u);
  ASSERT_EQ(rec_start.size(), 1u);
  ASSERT_EQ(rec_done.size(), 1u);
  EXPECT_EQ(rec_start[0].component, "workflow");
  EXPECT_EQ(rec_done[0].component, "workflow");
  EXPECT_LT(failures[0].at.ns, rec_start[0].at.ns);
  EXPECT_LT(rec_start[0].at.ns, rec_done[0].at.ns);
  // Both carry the global checkpoint the workflow rolled back to.
  EXPECT_EQ(rec_start[0].timestep, rec_done[0].timestep);
  EXPECT_TRUE(t.of_kind(Kind::kReplayDone).empty());  // Co logs nothing
}

TEST(TraceIntegrationTest, DigestIsARunFingerprint) {
  WorkflowRunner a(spec_for_trace(2, 7));
  WorkflowRunner b(spec_for_trace(2, 7));
  WorkflowRunner c(spec_for_trace(2, 8));
  a.run();
  b.run();
  c.run();
  EXPECT_EQ(a.trace().digest(), b.trace().digest());
  EXPECT_NE(a.trace().digest(), c.trace().digest());
}

}  // namespace
}  // namespace dstage::core
