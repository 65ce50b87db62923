#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/executor.hpp"
#include "core/setups.hpp"
#include "obs/flight_recorder.hpp"
#include "sim/time.hpp"

namespace dstage::obs {
namespace {

sim::TimePoint at(std::int64_t ns) { return sim::TimePoint{} + sim::Duration{ns}; }

TEST(FlightRecorderTest, RingKeepsLastKOldestFirstUnderSustainedTraffic) {
  RecorderConfig cfg;
  cfg.ring_capacity = 8;
  FlightRecorder rec(cfg);
  const std::uint32_t t = rec.track("staging-0");
  const std::uint32_t var = rec.intern("field");
  for (int i = 0; i < 100; ++i) {
    rec.record(t, at(i), FrKind::kPutAdmit, var, i, 2 * i);
  }
  EXPECT_EQ(rec.events_recorded(), 100u);
  EXPECT_EQ(rec.events_dropped(), 92u);

  const std::vector<FrEvent> survived = rec.track_events(t);
  ASSERT_EQ(survived.size(), 8u);
  // Oldest first, and exactly the last K offered.
  for (std::size_t i = 0; i < survived.size(); ++i) {
    EXPECT_EQ(survived[i].a, 92 + static_cast<std::int64_t>(i));
    if (i > 0) {
      EXPECT_LT(survived[i - 1].seq, survived[i].seq);
    }
  }
}

TEST(FlightRecorderTest, TracksTruncateIndependentlyAndMergeBySeq) {
  RecorderConfig cfg;
  cfg.ring_capacity = 4;
  FlightRecorder rec(cfg);
  const std::uint32_t busy = rec.track("staging-0");
  const std::uint32_t quiet = rec.track("analytic");
  rec.record(quiet, at(0), FrKind::kGetServe, rec.intern("field"), 1, 42);
  for (int i = 0; i < 20; ++i) {
    rec.record(busy, at(10 + i), FrKind::kPutAdmit, rec.intern("field"), i, 0);
  }
  // The busy ring wrapped; the quiet track kept its single early event.
  const std::vector<FrEvent> merged = rec.snapshot();
  ASSERT_EQ(merged.size(), 5u);
  EXPECT_EQ(merged.front().track, quiet);
  for (std::size_t i = 1; i < merged.size(); ++i) {
    EXPECT_LT(merged[i - 1].seq, merged[i].seq);
  }
  const std::vector<FrDecoded> dump = rec.dump();
  ASSERT_EQ(dump.size(), 5u);
  EXPECT_EQ(dump.front().track, "analytic");
  EXPECT_EQ(dump.front().kind, "get-serve");
  EXPECT_EQ(dump.front().detail, "field");
  EXPECT_EQ(dump.back().track, "staging-0");
}

TEST(FlightRecorderTest, InternTablesReturnStableDenseIds) {
  FlightRecorder rec;
  const std::uint32_t a = rec.track("a");
  const std::uint32_t b = rec.track("b");
  EXPECT_NE(a, b);
  EXPECT_EQ(rec.track("a"), a);
  EXPECT_EQ(rec.intern("field"), rec.intern("field"));
  EXPECT_EQ(rec.track_name(a), "a");
  EXPECT_EQ(rec.track_count(), 2u);
}

TEST(FlightRecorderTest, DegradationIsRecordedAndKeptVerbatim) {
  FlightRecorder rec;
  const std::uint32_t t = rec.track("recovery-manager");
  rec.note_degradation(t, at(7), "spare pool exhausted; server 2 down");
  ASSERT_EQ(rec.degradations().size(), 1u);
  EXPECT_EQ(rec.degradations()[0], "spare pool exhausted; server 2 down");
  const std::vector<FrDecoded> dump = rec.dump();
  ASSERT_EQ(dump.size(), 1u);
  EXPECT_EQ(dump[0].kind, "degradation");
  EXPECT_EQ(dump[0].detail, "spare pool exhausted; server 2 down");
}

// The recorder's reason to exist is that it is free: golden trace digests
// must be byte-identical with it at defaults (on), off, and at a tiny
// ring size — it allocates no vprocs, takes no virtual time, records no
// trace events, and draws no randomness.
TEST(FlightRecorderTest, GoldenDigestIsInvariantToRecorderConfig) {
  const auto digest_with = [](bool enabled, std::size_t ring) {
    core::WorkflowSpec spec = core::table2_setup(core::Scheme::kUncoordinated);
    spec.failures.count = 2;
    spec.failures.seed = 1;
    spec.failures.node_failure_fraction = 0.2;
    spec.recorder.enabled = enabled;
    spec.recorder.ring_capacity = ring;
    core::WorkflowRunner runner(std::move(spec));
    runner.run();
    return runner.trace().digest();
  };
  const std::uint64_t on = digest_with(true, 256);
  EXPECT_EQ(digest_with(false, 256), on);
  EXPECT_EQ(digest_with(true, 4), on);
}

}  // namespace
}  // namespace dstage::obs
