#include <gtest/gtest.h>

#include <string_view>

#include "obs/recorder.hpp"
#include "sim/engine.hpp"
#include "staging/types.hpp"
#include "wlog/data_log.hpp"
#include "wlog/event_queue.hpp"

namespace dstage::wlog {
namespace {

using staging::make_chunk;

LogEvent put_evt(int app, Version v, const std::string& var = "f") {
  return LogEvent{EventKind::kPut, app, v, var, Box::from_dims(4, 4, 4),
                  512, 0};
}
LogEvent get_evt(int app, Version v, const std::string& var = "f") {
  return LogEvent{EventKind::kGet, app, v, var, Box::from_dims(4, 4, 4), 0,
                  0};
}
LogEvent ckpt_evt(int app, Version v, WChkId id) {
  return LogEvent{EventKind::kCheckpoint, app, v, {}, Box{}, 0, id};
}

TEST(EventQueueTest, RecordAccumulatesMetadata) {
  EventQueue q;
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.metadata_bytes(), 0u);
  q.record(put_evt(0, 1));
  q.record(get_evt(1, 1));
  EXPECT_EQ(q.size(), 2u);
  EXPECT_GT(q.metadata_bytes(), 0u);
}

TEST(EventQueueTest, ReplayWithoutCheckpointCoversWholeQueue) {
  EventQueue q;
  q.record(put_evt(0, 1));
  q.record(put_evt(0, 2));
  q.record(put_evt(0, 3));
  EXPECT_EQ(q.begin_replay(), 3u);
  EXPECT_TRUE(q.replaying());
  ASSERT_NE(q.expected(), nullptr);
  EXPECT_EQ(q.expected()->version, 1u);
}

TEST(EventQueueTest, ReplayStartsAfterLastCheckpoint) {
  EventQueue q;
  q.record(put_evt(0, 1));
  q.record(ckpt_evt(0, 1, 11));
  q.record(put_evt(0, 2));
  q.record(ckpt_evt(0, 2, 12));
  q.record(put_evt(0, 3));
  q.record(put_evt(0, 4));
  EXPECT_EQ(q.begin_replay(), 2u);
  EXPECT_EQ(q.expected()->version, 3u);
  q.advance();
  EXPECT_EQ(q.expected()->version, 4u);
  q.advance();
  EXPECT_FALSE(q.replaying());
  EXPECT_EQ(q.expected(), nullptr);
}

TEST(EventQueueTest, EmptyScriptDoesNotEnterReplay) {
  EventQueue q;
  q.record(put_evt(0, 1));
  q.record(ckpt_evt(0, 1, 1));
  EXPECT_EQ(q.begin_replay(), 0u);
  EXPECT_FALSE(q.replaying());
}

TEST(EventQueueTest, AdvanceOutsideReplayThrows) {
  EventQueue q;
  EXPECT_THROW(q.advance(), std::logic_error);
}

TEST(EventQueueTest, SecondFailureDuringReplayRestartsScript) {
  EventQueue q;
  q.record(ckpt_evt(0, 4, 1));
  q.record(put_evt(0, 5));
  q.record(get_evt(0, 5));
  q.begin_replay();
  q.advance();  // consumed the put
  // Second failure: replay restarts from the script head.
  EXPECT_EQ(q.begin_replay(), 2u);
  EXPECT_EQ(q.expected()->kind, EventKind::kPut);
}

TEST(EventQueueTest, RecoveryMarkersSkippedInScript) {
  EventQueue q;
  q.record(ckpt_evt(0, 2, 1));
  q.record(put_evt(0, 3));
  q.record(LogEvent{EventKind::kRecovery, 0, 2, {}, Box{}, 0, 0});
  q.record(put_evt(0, 4));
  EXPECT_EQ(q.begin_replay(), 2u);
  EXPECT_EQ(q.expected()->version, 3u);
  q.advance();
  EXPECT_EQ(q.expected()->version, 4u);  // recovery marker skipped
}

TEST(EventQueueTest, TruncateDropsOnlyBeforeLastCheckpoint) {
  EventQueue q;
  q.record(put_evt(0, 1));
  q.record(put_evt(0, 2));
  q.record(ckpt_evt(0, 2, 7));
  q.record(put_evt(0, 3));
  const std::uint64_t before = q.metadata_bytes();
  EXPECT_EQ(q.truncate_before_last_checkpoint(), 2u);
  EXPECT_EQ(q.size(), 2u);  // checkpoint marker + the ts-3 put
  EXPECT_LT(q.metadata_bytes(), before);
  EXPECT_TRUE(q.has_checkpoint());
  EXPECT_EQ(q.last_checkpoint_version(), 2u);
  // Replay still anchors correctly after truncation.
  EXPECT_EQ(q.begin_replay(), 1u);
  EXPECT_EQ(q.expected()->version, 3u);
}

TEST(EventQueueTest, TruncateWithoutCheckpointIsNoop) {
  EventQueue q;
  q.record(put_evt(0, 1));
  EXPECT_EQ(q.truncate_before_last_checkpoint(), 0u);
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueueTest, TruncateDuringReplayPreservesCursor) {
  EventQueue q;
  q.record(put_evt(0, 1));
  q.record(ckpt_evt(0, 1, 1));
  q.record(put_evt(0, 2));
  q.record(put_evt(0, 3));
  q.begin_replay();
  q.advance();  // consumed put(2); expecting put(3)
  q.truncate_before_last_checkpoint();
  ASSERT_TRUE(q.replaying());
  EXPECT_EQ(q.expected()->version, 3u);
}

TEST(EventQueueTest, LastCheckpointVersionOfEmptyQueueIsZero) {
  EventQueue q;
  EXPECT_FALSE(q.has_checkpoint());
  EXPECT_EQ(q.last_checkpoint_version(), 0u);
}

TEST(EventMetadataTest, ScalesWithNameLength) {
  LogEvent a = put_evt(0, 1, "x");
  LogEvent b = put_evt(0, 1, "a_much_longer_variable_name");
  EXPECT_LT(event_metadata_bytes(a), event_metadata_bytes(b));
}

TEST(DataLogTest, RetainsAllVersions) {
  DataLog log;
  Box r = Box::from_dims(8, 8, 8);
  for (Version v = 1; v <= 10; ++v)
    log.add(make_chunk("f", v, r, 8.0, 1024));
  EXPECT_EQ(log.versions_of("f").size(), 10u);
  EXPECT_TRUE(log.covers("f", 1, r));
  EXPECT_TRUE(log.covers("f", 10, r));
  EXPECT_EQ(log.nominal_bytes(), 10 * r.volume() * 8);
}

TEST(DataLogTest, DropUptoReclaims) {
  DataLog log;
  Box r = Box::from_dims(8, 8, 8);
  for (Version v = 1; v <= 6; ++v)
    log.add(make_chunk("f", v, r, 8.0, 1024));
  EXPECT_EQ(log.drop_upto("f", 4), 4u);
  EXPECT_EQ(log.versions_of("f"), (std::vector<Version>{5, 6}));
  EXPECT_FALSE(log.covers("f", 4, r));
  EXPECT_EQ(log.drop_upto("f", 4), 0u);  // idempotent
}

TEST(DataLogTest, DropAboveForRollback) {
  DataLog log;
  Box r = Box::from_dims(8, 8, 8);
  for (Version v = 1; v <= 6; ++v)
    log.add(make_chunk("f", v, r, 8.0, 1024));
  EXPECT_EQ(log.drop_above(2), 4u);
  EXPECT_EQ(log.versions_of("f"), (std::vector<Version>{1, 2}));
}

TEST(DataLogTest, GetServesHistoricalVersion) {
  DataLog log;
  Box r = Box::from_dims(8, 8, 8);
  log.add(make_chunk("f", 3, r, 8.0, 1024));
  log.add(make_chunk("f", 9, r, 8.0, 1024));
  auto pieces = log.get("f", 3, r);
  ASSERT_EQ(pieces.size(), 1u);
  EXPECT_EQ(pieces[0].version, 3u);
  EXPECT_EQ(staging::check_chunk(pieces[0], "f", 3),
            staging::ChunkCheck::kOk);
}

TEST(DataLogTest, DropUptoEdgeCases) {
  DataLog log;
  Box r = Box::from_dims(8, 8, 8);
  // Unknown variable and empty log: nothing to drop, no throw.
  EXPECT_EQ(log.drop_upto("ghost", 100), 0u);
  for (Version v = 2; v <= 5; ++v)
    log.add(make_chunk("f", v, r, 8.0, 1024));
  // Watermark 0 and watermark below the oldest retained version: no-ops.
  EXPECT_EQ(log.drop_upto("f", 0), 0u);
  EXPECT_EQ(log.drop_upto("f", 1), 0u);
  EXPECT_EQ(log.versions_of("f").size(), 4u);
  // Watermark at the oldest version drops exactly that one.
  EXPECT_EQ(log.drop_upto("f", 2), 1u);
  EXPECT_EQ(log.versions_of("f"), (std::vector<Version>{3, 4, 5}));
  // Watermark beyond the newest drops everything: the raw log has no
  // keep-latest rule — that safety belongs to the GC sweep above it.
  EXPECT_EQ(log.drop_upto("f", 99), 3u);
  EXPECT_TRUE(log.versions_of("f").empty());
  EXPECT_EQ(log.nominal_bytes(), 0u);
  // A different variable is never touched by another variable's drop.
  log.add(make_chunk("g", 1, r, 8.0, 1024));
  EXPECT_EQ(log.drop_upto("f", 99), 0u);
  EXPECT_EQ(log.versions_of("g").size(), 1u);
}

TEST(DataLogTest, DropUptoSkipsGapsInVersionHistory) {
  DataLog log;
  Box r = Box::from_dims(8, 8, 8);
  for (Version v : {1u, 4u, 7u, 10u})
    log.add(make_chunk("f", v, r, 8.0, 1024));
  // Only versions that actually exist count toward the drop total.
  EXPECT_EQ(log.drop_upto("f", 8), 3u);
  EXPECT_EQ(log.versions_of("f"), (std::vector<Version>{10}));
}

TEST(DataLogTest, DropUptoEmitsExplicitLogDrops) {
  sim::Engine eng;
  obs::Recorder rec(eng);
  DataLog log(rec.track("staging-0"));
  Box r = Box::from_dims(8, 8, 8);
  for (Version v = 1; v <= 4; ++v)
    log.add(make_chunk("f", v, r, 8.0, 1024));
  std::vector<Version> dropped;
  rec.subscribe([&](const obs::Event& e, std::string_view detail) {
    ASSERT_EQ(e.kind, obs::Kind::kLogDrop);
    EXPECT_EQ(rec.track_name(e.track), "staging-0");
    EXPECT_EQ(detail, "f");
    EXPECT_EQ(e.b, static_cast<std::int64_t>(staging::DropReason::kExplicit));
    dropped.push_back(static_cast<Version>(e.a));
  });
  EXPECT_EQ(log.drop_upto("f", 3), 3u);
  EXPECT_EQ(dropped, (std::vector<Version>{1, 2, 3}));
}

// ---------------------------------------------------------------------------
// Metadata-byte accounting. Regression for an unsigned underflow: if any
// path mutated events_ without keeping the tally in step, truncation could
// subtract more than the remaining count and poison the governor's
// metadata accounting with a ~2^64 value for the rest of the run.
// ---------------------------------------------------------------------------

std::uint64_t recount(const EventQueue& q) {
  std::uint64_t total = 0;
  for (const LogEvent& e : q.events()) total += event_metadata_bytes(e);
  return total;
}

TEST(EventQueueTest, MetadataTallyMatchesRetainedRecords) {
  EventQueue q;
  // Mixed kinds and variable-name lengths (the tally is name-dependent).
  q.record(put_evt(0, 1, "f"));
  q.record(get_evt(1, 1, "grad_long_name"));
  q.record(ckpt_evt(0, 1, 11));
  q.record(put_evt(0, 2, "p"));
  EXPECT_EQ(q.metadata_bytes(), recount(q));

  EXPECT_EQ(q.truncate_before_last_checkpoint(), 2u);
  EXPECT_EQ(q.metadata_bytes(), recount(q));

  // Second truncation with no newer checkpoint drops nothing and must not
  // move the tally (the underflow would have struck here).
  EXPECT_EQ(q.truncate_before_last_checkpoint(), 0u);
  EXPECT_EQ(q.metadata_bytes(), recount(q));

  q.record(put_evt(0, 3));
  q.record(ckpt_evt(0, 3, 12));
  q.record(get_evt(1, 3));
  EXPECT_EQ(q.truncate_before_last_checkpoint(), 3u);
  EXPECT_EQ(q.metadata_bytes(), recount(q));
  EXPECT_LT(q.metadata_bytes(), 1ull << 32);  // no wrap-around, ever
}

TEST(EventQueueTest, MetadataTallySurvivesReplayInterleaving) {
  EventQueue q;
  q.record(put_evt(0, 1));
  q.record(ckpt_evt(0, 1, 1));
  q.record(put_evt(0, 2));
  q.record(get_evt(0, 2));
  q.begin_replay();
  q.advance();  // mid-replay truncation (recovery racing a checkpoint)
  EXPECT_EQ(q.truncate_before_last_checkpoint(), 1u);
  EXPECT_EQ(q.metadata_bytes(), recount(q));
  q.record(put_evt(0, 3));
  EXPECT_EQ(q.metadata_bytes(), recount(q));
}

}  // namespace
}  // namespace dstage::wlog
