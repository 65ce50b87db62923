#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "check/forensics.hpp"
#include "core/executor.hpp"
#include "core/setups.hpp"
#include "obs/event.hpp"
#include "obs/recorder.hpp"
#include "sim/engine.hpp"

namespace dstage::obs {
namespace {

TEST(FlightRecorderTest, RingKeepsLastKOldestFirstUnderSustainedTraffic) {
  sim::Engine eng;
  RecorderConfig cfg;
  cfg.ring_capacity = 8;
  Recorder rec(eng, cfg);
  const Track t = rec.track("staging-0");
  for (int i = 0; i < 100; ++i) {
    t.emit(Kind::kPutAdmit, "field", i, 2 * i);
  }
  EXPECT_EQ(rec.events_recorded(), 100u);
  EXPECT_EQ(rec.events_dropped(), 92u);

  const std::vector<Event> survived = rec.snapshot();
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
  sim::Engine eng;
  RecorderConfig cfg;
  cfg.ring_capacity = 4;
  Recorder rec(eng, cfg);
  const Track busy = rec.track("staging-0");
  const Track quiet = rec.track("analytic");
  quiet.emit(Kind::kGetServe, "field", 1, 42);
  for (int i = 0; i < 20; ++i) {
    busy.emit(Kind::kPutAdmit, "field", i, 0);
  }
  // The busy ring wrapped; the quiet track kept its single early event.
  const std::vector<Event> merged = rec.snapshot();
  ASSERT_EQ(merged.size(), 5u);
  EXPECT_EQ(rec.track_name(merged.front().track), "analytic");
  for (std::size_t i = 1; i < merged.size(); ++i) {
    EXPECT_LT(merged[i - 1].seq, merged[i].seq);
  }
  const std::vector<DecodedEvent> dump = rec.dump();
  ASSERT_EQ(dump.size(), 5u);
  EXPECT_EQ(dump.front().track, "analytic");
  EXPECT_EQ(dump.front().kind, "get-serve");
  EXPECT_EQ(dump.front().detail, "field");
  EXPECT_EQ(dump.back().track, "staging-0");
}

TEST(FlightRecorderTest, InternTablesReturnStableDenseIds) {
  sim::Engine eng;
  Recorder rec(eng);
  (void)rec.track("a");
  (void)rec.track("b");
  (void)rec.track("a");
  EXPECT_EQ(rec.track_count(), 2u);
  EXPECT_EQ(rec.track_name(0), "a");
  EXPECT_EQ(rec.track_name(1), "b");
  EXPECT_EQ(rec.intern("field"), rec.intern("field"));
  EXPECT_NE(rec.intern("field"), rec.intern("other"));
}

TEST(FlightRecorderTest, DegradationIsRecordedAndKeptVerbatim) {
  sim::Engine eng;
  Recorder rec(eng);
  rec.track("recovery-manager").degrade("spare pool exhausted; server 2 down");
  ASSERT_EQ(rec.degradations().size(), 1u);
  EXPECT_EQ(rec.degradations()[0], "spare pool exhausted; server 2 down");
  const std::vector<DecodedEvent> dump = rec.dump();
  ASSERT_EQ(dump.size(), 1u);
  EXPECT_EQ(dump[0].kind, "degradation");
  EXPECT_EQ(dump[0].detail, "spare pool exhausted; server 2 down");
}

// A component built alone (a unit-test rig) holds a detached track: every
// method must be a harmless no-op.
TEST(FlightRecorderTest, DetachedTrackRecordsNothing) {
  const Track t;
  t.emit(Kind::kFailure, 3, 1);
  t.emit(Kind::kPutAdmit, "field", 1, 2);
  EXPECT_EQ(t.begin("span", Phase::kOther), SpanId{0});
  t.end(1);
  t.end_open();
  t.count("requests");
  t.gauge("pressure", 1.0);
  t.observe("latency", 1.0);
  t.degrade("nothing to see");
}

// The kind table routes each event: ring kinds reach the ring, the
// failure kind is also a span instant, and spans/metrics stay off unless
// ObsConfig is on.
TEST(FlightRecorderTest, KindTableRoutesEventsToTheirSinks) {
  sim::Engine eng;
  ObsConfig on;
  on.enabled = true;
  Recorder rec(eng, {}, on);
  const Track t = rec.track("simulation");
  t.emit(Kind::kTimestepStart, 1);
  t.emit(Kind::kFailure, 1, 1);
  t.emit(Kind::kPutAdmit, "field", 1, 64);
  EXPECT_EQ(rec.events_recorded(), 2u);  // failure + put-admit
  EXPECT_EQ(rec.trace().size(), 2u);     // ts-start + failure
  ASSERT_NE(rec.obs(), nullptr);
  const std::vector<Instant>& instants = rec.obs()->tracer().instants();
  ASSERT_EQ(instants.size(), 1u);
  EXPECT_EQ(instants[0].name, "failure");
  EXPECT_EQ(instants[0].track, "simulation");
  EXPECT_EQ(instants[0].value, 1);
  const std::vector<DecodedEvent> dump = rec.dump();
  ASSERT_EQ(dump.size(), 2u);
  EXPECT_EQ(dump[0].kind, "failure");
  EXPECT_EQ(dump[0].a, 1);
  EXPECT_EQ(dump[1].detail, "field");

  Recorder off(eng);
  EXPECT_EQ(off.obs(), nullptr);
  EXPECT_EQ(off.track("simulation").begin("read", Phase::kRead), SpanId{0});
}

TEST(FlightRecorderTest, KindTableNamesAndDigestVisibility) {
  std::set<std::string> names;
  for (const KindInfo& k : kKindTable) names.insert(k.name);
  EXPECT_EQ(names.size(), kKindCount) << "kind names must be unique";

  // The forensic causal walk matches kinds by bundle name: every name it
  // follows must be a kind the recorder can actually emit.
  for (const char* name : check::causal_kinds()) {
    EXPECT_EQ(names.count(name), 1u) << name;
  }

  // Digest visibility: with obs off only `always` kinds move the digest;
  // with obs on `obs_only` kinds do too. `never` kinds never do.
  sim::Engine eng;
  Recorder plain(eng);
  ObsConfig on;
  on.enabled = true;
  Recorder instrumented(eng, {}, on);
  const Track p = plain.track("c");
  const Track q = instrumented.track("c");
  for (std::size_t i = 0; i < kKindCount; ++i) {
    const Kind kind = static_cast<Kind>(i);
    const Digest vis = kind_info(kind).digest;
    const std::uint64_t before_plain = plain.trace().digest();
    const std::uint64_t before_instr = instrumented.trace().digest();
    p.emit(kind, "x", 7, 9);
    q.emit(kind, "x", 7, 9);
    if (vis == Digest::kAlways) {
      EXPECT_NE(plain.trace().digest(), before_plain) << kind_name(kind);
    } else {
      EXPECT_EQ(plain.trace().digest(), before_plain) << kind_name(kind);
    }
    if (vis == Digest::kNever) {
      EXPECT_EQ(instrumented.trace().digest(), before_instr)
          << kind_name(kind);
    } else {
      EXPECT_NE(instrumented.trace().digest(), before_instr)
          << kind_name(kind);
    }
  }
}

// The one subscriber sees every emit — every kind, `always`, `obs_only`
// and `never`, ring and ring-less, obs on and off — synchronously, in
// emission order, with the site's detail string; and watching changes
// neither the digest nor the rings.
TEST(FlightRecorderTest, SubscriberSeesEveryEmitInOrderWithItsDetail) {
  struct Seen {
    Kind kind;
    std::string track;
    std::string detail;
    std::int64_t a;
    std::int64_t b;
    bool has_seq;
  };
  for (const bool obs_on : {false, true}) {
    sim::Engine eng;
    ObsConfig cfg;
    cfg.enabled = obs_on;
    Recorder plain(eng, {}, cfg);
    Recorder watched(eng, {}, cfg);
    std::vector<Seen> seen;
    watched.subscribe([&](const Event& e, std::string_view detail) {
      seen.push_back({e.kind, watched.track_name(e.track),
                      std::string(detail), e.a, e.b, e.seq != 0});
    });
    const Track p = plain.track("staging-0");
    const Track w = watched.track("staging-0");
    for (std::size_t i = 0; i < kKindCount; ++i) {
      const Kind kind = static_cast<Kind>(i);
      const std::string detail = "var-" + std::to_string(i);
      const auto n = static_cast<std::int64_t>(i);
      for (const Track& t : {p, w}) {
        t.emit(kind, detail, n, 2 * n);
        t.emit(kind, n, -1);
      }
    }

    ASSERT_EQ(seen.size(), 2 * kKindCount);
    for (std::size_t i = 0; i < kKindCount; ++i) {
      const Kind kind = static_cast<Kind>(i);
      const auto n = static_cast<std::int64_t>(i);
      const Seen& with = seen[2 * i];
      const Seen& without = seen[2 * i + 1];
      EXPECT_EQ(with.kind, kind);
      EXPECT_EQ(with.track, "staging-0");
      EXPECT_EQ(with.detail, "var-" + std::to_string(i)) << kind_name(kind);
      EXPECT_EQ(with.a, n);
      EXPECT_EQ(with.b, 2 * n);
      EXPECT_EQ(with.has_seq, kind_info(kind).ring) << kind_name(kind);
      EXPECT_EQ(without.kind, kind);
      EXPECT_EQ(without.detail, "");
      EXPECT_EQ(without.b, -1);
    }

    EXPECT_EQ(watched.trace().digest(), plain.trace().digest());
    EXPECT_EQ(watched.events_recorded(), plain.events_recorded());
    const std::vector<DecodedEvent> a = plain.dump();
    const std::vector<DecodedEvent> b = watched.dump();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].seq, b[i].seq);
      EXPECT_EQ(a[i].at_ns, b[i].at_ns);
      EXPECT_EQ(a[i].kind, b[i].kind);
      EXPECT_EQ(a[i].track, b[i].track);
      EXPECT_EQ(a[i].detail, b[i].detail);
      EXPECT_EQ(a[i].a, b[i].a);
      EXPECT_EQ(a[i].b, b[i].b);
    }
  }
}

// A whole failure run watched by a subscriber keeps its digest and its
// flight-recorder dump, and the subscriber sees the subscriber-only kinds
// the rings and the digest never do.
TEST(FlightRecorderTest, SubscribedRunIsByteIdentical) {
  const auto run = [](bool watch, std::size_t* subscriber_only) {
    core::WorkflowSpec spec = core::table2_setup(core::Scheme::kUncoordinated);
    spec.total_ts = 12;
    spec.failures.count = 1;
    spec.failures.seed = 1;
    core::WorkflowRunner runner(std::move(spec));
    if (watch) {
      runner.runtime().recorder().subscribe(
          [subscriber_only](const Event& e, std::string_view) {
            const KindInfo& k = kind_info(e.kind);
            if (k.digest == Digest::kNever && !k.ring) ++*subscriber_only;
          });
    }
    runner.run();
    std::string dump;
    for (const DecodedEvent& e : runner.runtime().recorder().dump()) {
      dump += std::to_string(e.seq) + " " + std::to_string(e.at_ns) + " " +
              e.kind + " " + e.track + " " + e.detail + " " +
              std::to_string(e.a) + " " + std::to_string(e.b) + "\n";
    }
    return std::make_pair(runner.trace().digest(), dump);
  };
  std::size_t subscriber_only = 0;
  const auto plain = run(false, nullptr);
  const auto watched = run(true, &subscriber_only);
  EXPECT_EQ(plain.first, watched.first);
  EXPECT_EQ(plain.second, watched.second);
  EXPECT_FALSE(plain.second.empty());
  EXPECT_GT(subscriber_only, 0u);
}

// The rings' reason to exist is that they are free: golden trace digests
// must be byte-identical at any ring size — they allocate no vprocs, take
// no virtual time, record no trace events, and draw no randomness.
TEST(FlightRecorderTest, GoldenDigestIsInvariantToRecorderConfig) {
  const auto digest_with = [](std::size_t ring) {
    core::WorkflowSpec spec = core::table2_setup(core::Scheme::kUncoordinated);
    spec.failures.count = 2;
    spec.failures.seed = 1;
    spec.failures.node_failure_fraction = 0.2;
    spec.recorder.ring_capacity = ring;
    core::WorkflowRunner runner(std::move(spec));
    runner.run();
    return runner.trace().digest();
  };
  EXPECT_EQ(digest_with(4), digest_with(256));
}

}  // namespace
}  // namespace dstage::obs
