#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "gc/garbage_collector.hpp"
#include "obs/recorder.hpp"
#include "sim/engine.hpp"
#include "staging/types.hpp"

namespace dstage::gc {
namespace {

using staging::make_chunk;
constexpr Version kMax = std::numeric_limits<Version>::max();

wlog::DataLog log_with_versions(const std::string& var, Version upto) {
  wlog::DataLog log;
  for (Version v = 1; v <= upto; ++v)
    log.add(make_chunk(var, v, Box::from_dims(8, 8, 8), 8.0, 1024));
  return log;
}

TEST(GarbageCollectorTest, WatermarkUnknownVarIsMax) {
  GarbageCollector gc;
  EXPECT_EQ(gc.watermark("unknown"), kMax);
}

TEST(GarbageCollectorTest, WatermarkTracksMinConsumerCheckpoint) {
  GarbageCollector gc;
  gc.register_var("f", {{1, true}, {2, true}});
  EXPECT_EQ(gc.watermark("f"), 0u);  // nobody checkpointed yet
  gc.on_checkpoint(1, 5);
  EXPECT_EQ(gc.watermark("f"), 0u);  // app 2 still at 0
  gc.on_checkpoint(2, 3);
  EXPECT_EQ(gc.watermark("f"), 3u);
  gc.on_checkpoint(2, 10);
  EXPECT_EQ(gc.watermark("f"), 5u);
}

TEST(GarbageCollectorTest, CheckpointNeverRegresses) {
  GarbageCollector gc;
  gc.register_var("f", {{1, true}});
  gc.on_checkpoint(1, 8);
  gc.on_checkpoint(1, 4);  // stale notification
  EXPECT_EQ(gc.last_checkpoint(1), 8u);
}

TEST(GarbageCollectorTest, ReplicatedConsumersDoNotPinRetention) {
  GarbageCollector gc;
  // App 2 is replication-protected: it never replays.
  gc.register_var("f", {{1, true}, {2, false}});
  gc.on_checkpoint(1, 6);
  EXPECT_EQ(gc.watermark("f"), 6u);  // app 2's absence of checkpoints ignored
}

TEST(GarbageCollectorTest, OnlyReplicatedConsumersMeansMaxWatermark) {
  GarbageCollector gc;
  gc.register_var("f", {{2, false}});
  EXPECT_EQ(gc.watermark("f"), kMax);
}

TEST(GarbageCollectorTest, SweepDropsReclaimableKeepsLatest) {
  GarbageCollector gc;
  gc.register_var("f", {{1, true}});
  gc.on_checkpoint(1, 4);
  auto log = log_with_versions("f", 6);
  auto result = gc.sweep(log);
  EXPECT_EQ(result.versions_dropped, 4u);  // versions 1..4
  EXPECT_GT(result.nominal_freed, 0u);
  EXPECT_EQ(log.versions_of("f"), (std::vector<Version>{5, 6}));
}

TEST(GarbageCollectorTest, SweepNeverDropsLatestEvenIfReclaimable) {
  GarbageCollector gc;
  gc.register_var("f", {{1, true}});
  gc.on_checkpoint(1, 100);  // consumer far ahead
  auto log = log_with_versions("f", 6);
  gc.sweep(log);
  EXPECT_EQ(log.versions_of("f"), (std::vector<Version>{6}));
}

TEST(GarbageCollectorTest, SweepSafety_NeverDropsReplayableVersion) {
  // GC safety invariant: any version a rolled-back consumer could re-read
  // (v > its last checkpoint) must survive the sweep.
  GarbageCollector gc;
  gc.register_var("f", {{1, true}, {2, true}});
  gc.on_checkpoint(1, 7);
  gc.on_checkpoint(2, 3);
  auto log = log_with_versions("f", 9);
  gc.sweep(log);
  for (Version v = 4; v <= 9; ++v) {
    EXPECT_TRUE(log.covers("f", v, Box::from_dims(8, 8, 8)))
        << "version " << v << " needed by app 2's replay was dropped";
  }
}

TEST(GarbageCollectorTest, SweepCountsScannedEntries) {
  GarbageCollector gc;
  gc.register_var("f", {{1, true}});
  auto log = log_with_versions("f", 5);
  auto result = gc.sweep(log);
  EXPECT_EQ(result.entries_scanned, 5u);
}

TEST(GarbageCollectorTest, SweepMultipleVariablesIndependently) {
  GarbageCollector gc;
  gc.register_var("a", {{1, true}});
  gc.register_var("b", {{2, true}});
  gc.on_checkpoint(1, 5);
  gc.on_checkpoint(2, 1);
  wlog::DataLog log;
  for (Version v = 1; v <= 6; ++v) {
    log.add(make_chunk("a", v, Box::from_dims(4, 4, 4), 8.0, 1024));
    log.add(make_chunk("b", v, Box::from_dims(4, 4, 4), 8.0, 1024));
  }
  gc.sweep(log);
  EXPECT_EQ(log.versions_of("a"), (std::vector<Version>{6}));
  EXPECT_EQ(log.versions_of("b"), (std::vector<Version>{2, 3, 4, 5, 6}));
}

TEST(GarbageCollectorTest, SweepEmptyLogIsNoop) {
  GarbageCollector gc;
  wlog::DataLog log;
  auto result = gc.sweep(log);
  EXPECT_EQ(result.versions_dropped, 0u);
  EXPECT_EQ(result.entries_scanned, 0u);
}

TEST(GarbageCollectorTest, RepeatedSweepsConvergeAsConsumersAdvance) {
  // The drop_upto/watermark interaction over a whole run: each consumer
  // checkpoint advance releases exactly the newly unreachable versions,
  // and a sweep with no watermark movement reclaims nothing.
  GarbageCollector gc;
  gc.register_var("f", {{1, true}, {2, true}});
  auto log = log_with_versions("f", 8);
  EXPECT_EQ(gc.sweep(log).versions_dropped, 0u);  // no checkpoints yet
  gc.on_checkpoint(1, 6);
  EXPECT_EQ(gc.sweep(log).versions_dropped, 0u);  // app 2 still pins v1+
  gc.on_checkpoint(2, 3);
  EXPECT_EQ(gc.sweep(log).versions_dropped, 3u);  // v1..3 released
  EXPECT_EQ(gc.sweep(log).versions_dropped, 0u);  // steady state
  gc.on_checkpoint(2, 8);
  EXPECT_EQ(gc.sweep(log).versions_dropped, 3u);  // v4..6; app 1 pins v7+
  EXPECT_EQ(log.versions_of("f"), (std::vector<Version>{7, 8}));
  gc.on_checkpoint(1, 8);
  EXPECT_EQ(gc.sweep(log).versions_dropped, 1u);  // v7; v8 is latest
  EXPECT_EQ(log.versions_of("f"), (std::vector<Version>{8}));
}

TEST(GarbageCollectorTest, SweepEmitsReclaimBoundAndCountPerVariable) {
  GarbageCollector gc;
  gc.register_var("f", {{1, true}});
  gc.register_var("g", {});  // no rollback consumer: all but the latest
  gc.on_checkpoint(1, 5);
  auto log = log_with_versions("f", 9);
  log.add(make_chunk("g", 1, Box::from_dims(8, 8, 8), 8.0, 1024));
  log.add(make_chunk("g", 2, Box::from_dims(8, 8, 8), 8.0, 1024));
  sim::Engine eng;
  obs::Recorder rec(eng);
  struct Reclaim {
    std::string var;
    std::int64_t upto;
    std::int64_t dropped;
  };
  std::vector<Reclaim> got;
  rec.subscribe([&](const obs::Event& e, std::string_view detail) {
    if (e.kind == obs::Kind::kGcReclaim) {
      got.push_back({std::string(detail), e.a, e.b});
    }
  });
  gc.sweep(log, rec.track("staging-0"));
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].var, "f");
  EXPECT_EQ(got[0].upto, 5);  // the watermark, below the latest (v9)
  EXPECT_EQ(got[0].dropped, 5);
  EXPECT_EQ(got[1].var, "g");
  EXPECT_EQ(got[1].upto, 1);  // unpinned: capped one below the latest
  EXPECT_EQ(got[1].dropped, 1);
  // A sweep with nothing left to reclaim still reports each variable.
  got.clear();
  gc.sweep(log, rec.track("staging-0"));
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].dropped, 0);
  EXPECT_EQ(got[1].dropped, 0);
}

TEST(GarbageCollectorTest, WatermarkBiasSeamOvercollects) {
  // The campaign's fault-injection seam: a biased watermark must make the
  // GC reclaim versions a rolled-back consumer could still replay — this
  // is exactly what the oracle's retention invariant exists to catch.
  GarbageCollector gc;
  gc.register_var("f", {{1, true}});
  gc.on_checkpoint(1, 3);
  gc.set_watermark_bias(2);
  EXPECT_EQ(gc.watermark("f"), 5u);
  auto log = log_with_versions("f", 8);
  gc.sweep(log);
  EXPECT_FALSE(log.covers("f", 4, Box::from_dims(8, 8, 8)));
  EXPECT_FALSE(log.covers("f", 5, Box::from_dims(8, 8, 8)));
  EXPECT_EQ(log.versions_of("f"), (std::vector<Version>{6, 7, 8}));
}

TEST(GarbageCollectorTest, WatermarkBiasSaturatesAtMax) {
  GarbageCollector gc;
  gc.register_var("f", {});  // no rollback consumers: watermark already max
  gc.set_watermark_bias(2);
  EXPECT_EQ(gc.watermark("f"), kMax);
}

}  // namespace
}  // namespace dstage::gc
