#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "check/forensics.hpp"
#include "check/oracle.hpp"
#include "check/schedule.hpp"

namespace dstage::check {
namespace {

obs::DecodedEvent ev(std::uint64_t seq, const std::string& kind,
                     const std::string& track, const std::string& detail,
                     std::int64_t a, std::int64_t b) {
  obs::DecodedEvent e;
  e.seq = seq;
  e.at_ns = static_cast<std::int64_t>(seq) * 1000;
  e.kind = kind;
  e.track = track;
  e.detail = detail;
  e.a = a;
  e.b = b;
  return e;
}

Schedule failing_un_schedule() {
  Schedule s;
  s.scheme = core::Scheme::kUncoordinated;
  s.total_ts = 12;
  s.sim_period = 3;
  s.analytic_period = 4;
  ScheduleFailure f;
  f.comp = 0;
  f.ts = 2;
  f.phase = 0.5;
  s.failures.push_back(f);
  return s;
}

TEST(ForensicBundleTest, JsonRoundTripIsExact) {
  ForensicBundle b;
  b.trigger = "invariant-violation";
  b.detail = "invariant 4: simulation resumed without log replay";
  b.repro = "cc1;id=3;sch=un;ts=12;sp=3;ap=4;lp=0;res=0;mtbf=0";
  b.sabotage = "skip-replay";
  // Digests routinely exceed 2^53: the literal-preserving reader must
  // round-trip them exactly, not through a double.
  b.trace_digest = 18255976819492738729ull;
  b.reference_digest = 13509260001734639411ull;
  b.events_recorded = 1645;
  b.events_dropped = 608;
  b.degradations = {"double XOR loss: checkpoint set(s) unrestorable"};
  b.events = {ev(1, "put-admit", "staging-0", "field", 3, 4194304),
              ev(2, "get-serve", "analytic", "field", 3,
                 -7016758664213597039ll)};
  b.reference_events = {ev(1, "get-serve", "analytic", "field", 3, 99)};

  const ForensicBundle r = bundle_from_json(bundle_to_json(b));
  EXPECT_EQ(r.trigger, b.trigger);
  EXPECT_EQ(r.detail, b.detail);
  EXPECT_EQ(r.repro, b.repro);
  EXPECT_EQ(r.sabotage, b.sabotage);
  EXPECT_EQ(r.trace_digest, b.trace_digest);
  EXPECT_EQ(r.reference_digest, b.reference_digest);
  EXPECT_EQ(r.events_recorded, b.events_recorded);
  EXPECT_EQ(r.events_dropped, b.events_dropped);
  EXPECT_EQ(r.degradations, b.degradations);
  ASSERT_EQ(r.events.size(), 2u);
  EXPECT_EQ(r.events[1].kind, "get-serve");
  EXPECT_EQ(r.events[1].a, 3);
  EXPECT_EQ(r.events[1].b, -7016758664213597039ll);
  ASSERT_EQ(r.reference_events.size(), 1u);
  EXPECT_EQ(r.reference_events[0].b, 99);
}

TEST(ForensicBundleTest, MalformedJsonThrows) {
  EXPECT_THROW(bundle_from_json("{not json"), std::runtime_error);
  EXPECT_THROW(bundle_from_json("[1, 2]"), std::runtime_error);
}

TEST(FindDivergenceTest, NamesFirstSilentReadMismatch) {
  ForensicBundle b;
  b.reference_events = {ev(1, "get-serve", "analytic", "field", 3, 100),
                        ev(2, "get-serve", "analytic", "field", 4, 200)};
  b.events = {ev(10, "put-admit", "staging-0", "field", 3, 4096),
              ev(11, "get-serve", "analytic", "field", 3, 100),   // matches
              ev(12, "get-serve", "analytic", "field", 4, 777),   // diverges
              ev(13, "get-serve", "analytic", "field", 4, 778)};  // later
  const Divergence d = find_divergence(b);
  ASSERT_TRUE(d.found);
  EXPECT_EQ(d.index, 2u);
  EXPECT_NE(d.what.find("diverged silently"), std::string::npos);
  // The chain ends with the divergent event and pulls in the same-variable
  // put upstream of it.
  ASSERT_FALSE(d.causal_chain.empty());
  EXPECT_EQ(d.causal_chain.back().seq, 12u);
  EXPECT_EQ(d.causal_chain.front().seq, 10u);
}

TEST(FindDivergenceTest, FlaggedAnomalyWinsOverSilentDiff) {
  // A wrong-version serve the run itself flagged is the finding; the later
  // checksum mismatch on the same variable must not be reported as silent.
  ForensicBundle b;
  b.reference_events = {ev(1, "get-serve", "analytic", "field", 3, 100)};
  b.events = {ev(10, "get-anomaly", "analytic", "field", 3, 2),
              ev(11, "get-serve", "analytic", "field", 3, 777)};
  const Divergence d = find_divergence(b);
  ASSERT_TRUE(d.found);
  EXPECT_EQ(d.index, 0u);
  EXPECT_NE(d.what.find("wrong-version serve"), std::string::npos);
}

TEST(FindDivergenceTest, FlagsWatermarkPastReference) {
  ForensicBundle b;
  b.reference_events = {ev(1, "gc-watermark", "staging-0", "field", 12, 0)};
  b.events = {ev(10, "gc-watermark", "staging-0", "field", 11, 0),  // fine
              ev(11, "gc-watermark", "staging-0", "field", 14, 0)};
  const Divergence d = find_divergence(b);
  ASSERT_TRUE(d.found);
  EXPECT_EQ(d.index, 1u);
  EXPECT_NE(d.what.find("over-collection"), std::string::npos);
}

TEST(FindDivergenceTest, FlagsRestartWithoutReplayViaRealPolicy) {
  // The sabotaged policy lies to the runtime, so the missed replay is only
  // visible against the REAL scheme policy reconstructed from the repro.
  ForensicBundle b;
  b.repro = failing_un_schedule().repro();
  b.events = {ev(10, "failure", "simulation", "simulation", 2, 1),
              ev(11, "restart-level", "simulation", "simulation", 2, 0),
              ev(12, "get-serve", "analytic", "field", 3, 5)};
  const Divergence d = find_divergence(b);
  ASSERT_TRUE(d.found);
  EXPECT_EQ(d.index, 1u);
  EXPECT_NE(d.what.find("no replay-done followed"), std::string::npos);
  // The injected failure is upstream in the causal chain.
  EXPECT_EQ(d.causal_chain.front().kind, "failure");

  // With the replay performed (later seq, same component), the same
  // stream is clean.
  b.events.push_back(ev(13, "replay-done", "simulation", "simulation", 4, 0));
  EXPECT_FALSE(find_divergence(b).found);
}

TEST(FindDivergenceTest, NamesDegradationPivot) {
  ForensicBundle b;
  b.trigger = "degradation";
  b.events = {ev(10, "put-admit", "staging-0", "field", 1, 4096),
              ev(11, "degradation", "recovery-manager",
                 "spare pool exhausted; server 2 down unrecovered", 0, 0)};
  const Divergence d = find_divergence(b);
  ASSERT_TRUE(d.found);
  EXPECT_EQ(d.index, 1u);
  EXPECT_NE(d.what.find("spare pool exhausted"), std::string::npos);
}

// Trigger class 1: an oracle invariant violation attaches a bundle whose
// divergence analysis names the missed replay.
TEST(OracleBundleTest, InvariantViolationAttachesAnalyzableBundle) {
  ReferenceCache cache;
  const OracleReport report =
      check_schedule(failing_un_schedule(), cache, Sabotage::kSkipReplay);
  ASSERT_FALSE(report.ok());
  ASSERT_NE(report.bundle, nullptr);
  EXPECT_EQ(report.bundle->trigger, "invariant-violation");
  EXPECT_EQ(report.bundle->sabotage, "skip-replay");
  EXPECT_EQ(report.bundle->repro, failing_un_schedule().repro());
  EXPECT_FALSE(report.bundle->events.empty());
  EXPECT_FALSE(report.bundle->reference_events.empty());
  EXPECT_EQ(report.bundle->trace_digest, report.trace_digest);

  const Divergence d = find_divergence(*report.bundle);
  ASSERT_TRUE(d.found);
  EXPECT_NE(d.what.find("replay"), std::string::npos);

  // And the bundle survives the CI artifact round-trip.
  const ForensicBundle parsed = bundle_from_json(bundle_to_json(*report.bundle));
  EXPECT_EQ(parsed.events.size(), report.bundle->events.size());
  EXPECT_TRUE(find_divergence(parsed).found);
}

// Trigger class 2: a clean run with capture forced (how the campaign
// documents an --expect-fail mismatch) still yields a bundle.
TEST(OracleBundleTest, ForcedCaptureOnCleanRunIsExpectFailMismatch) {
  Schedule s = failing_un_schedule();
  s.failures.clear();  // failure-free: passes every invariant
  ReferenceCache cache;
  const OracleReport report =
      check_schedule(s, cache, Sabotage::kNone, /*capture_bundle=*/true);
  ASSERT_TRUE(report.ok());
  ASSERT_NE(report.bundle, nullptr);
  EXPECT_EQ(report.bundle->trigger, "expect-fail-mismatch");
  EXPECT_FALSE(report.bundle->events.empty());
  // Nothing diverged: the analysis must say so rather than invent one.
  EXPECT_FALSE(find_divergence(*report.bundle).found);
}

// Without forced capture, clean runs carry no bundle — the recorder dump
// is only frozen when something went loudly wrong.
TEST(OracleBundleTest, CleanRunCarriesNoBundle) {
  Schedule s = failing_un_schedule();
  s.failures.clear();
  ReferenceCache cache;
  const OracleReport report = check_schedule(s, cache);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.bundle, nullptr);
}

}  // namespace
}  // namespace dstage::check
