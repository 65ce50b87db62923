#include <gtest/gtest.h>

#include <string_view>
#include <tuple>

#include "gc/garbage_collector.hpp"
#include "obs/recorder.hpp"
#include "sim/engine.hpp"
#include "staging/object_store.hpp"
#include "staging/types.hpp"
#include "wlog/data_log.hpp"

namespace dstage::staging {
namespace {

Chunk chunk_of(const std::string& var, Version v, Box region,
               double bpp = 8.0) {
  return make_chunk(var, v, region, bpp, 1024);
}

TEST(ChunkTest, MakeChunkSizes) {
  Box r = Box::from_dims(32, 32, 32);
  Chunk c = chunk_of("t", 3, r);
  EXPECT_EQ(c.nominal_bytes, 32ull * 32 * 32 * 8);
  EXPECT_EQ(c.physical_bytes(), c.nominal_bytes / 1024);
  EXPECT_EQ(c.content_key, chunk_content_key("t", 3, r));
}

TEST(ChunkTest, PhysicalFloorIs16Bytes) {
  Chunk c = chunk_of("t", 0, Box{{0, 0, 0}, {0, 0, 0}});
  EXPECT_GE(c.physical_bytes(), 16u);
}

TEST(ChunkTest, CheckDetectsVersionMismatch) {
  Chunk c = chunk_of("t", 5, Box::from_dims(8, 8, 8));
  EXPECT_EQ(check_chunk(c, "t", 5), ChunkCheck::kOk);
  EXPECT_EQ(check_chunk(c, "t", 6), ChunkCheck::kWrongVersion);
  EXPECT_EQ(check_chunk(c, "u", 5), ChunkCheck::kWrongVersion);
}

TEST(ChunkTest, CheckDetectsCorruption) {
  Chunk c = chunk_of("t", 5, Box::from_dims(8, 8, 8));
  auto mutable_data = std::make_shared<std::vector<std::uint8_t>>(*c.data);
  (*mutable_data)[3] ^= 0xff;
  c.data = mutable_data;
  EXPECT_EQ(check_chunk(c, "t", 5), ChunkCheck::kCorrupt);
}

TEST(RegionHashTest, DistinctRegionsDistinctHashes) {
  EXPECT_NE(region_hash(Box{{0, 0, 0}, {1, 1, 1}}),
            region_hash(Box{{0, 0, 0}, {1, 1, 2}}));
  EXPECT_EQ(region_hash(Box{{1, 2, 3}, {4, 5, 6}}),
            region_hash(Box{{1, 2, 3}, {4, 5, 6}}));
}

TEST(ObjectStoreTest, PutGetRoundTrip) {
  ObjectStore store(2);
  Box r = Box::from_dims(16, 16, 16);
  store.put(chunk_of("v", 1, r));
  auto got = store.get("v", 1, r);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].version, 1u);
  EXPECT_TRUE(store.covers("v", 1, r));
}

TEST(ObjectStoreTest, GetClipsToRequest) {
  ObjectStore store(2);
  store.put(chunk_of("v", 1, Box::from_dims(16, 16, 16)));
  Box half{{0, 0, 0}, {15, 15, 7}};
  auto got = store.get("v", 1, half);
  ASSERT_EQ(got.size(), 1u);
  // Clipped nominal size is proportional to overlap volume.
  EXPECT_EQ(got[0].nominal_bytes, half.volume() * 8);
}

TEST(ObjectStoreTest, MissingVersionNotCovered) {
  ObjectStore store(2);
  store.put(chunk_of("v", 1, Box::from_dims(8, 8, 8)));
  EXPECT_FALSE(store.covers("v", 2, Box::from_dims(8, 8, 8)));
  EXPECT_FALSE(store.covers("w", 1, Box::from_dims(8, 8, 8)));
  EXPECT_TRUE(store.get("v", 2, Box::from_dims(8, 8, 8)).empty());
}

TEST(ObjectStoreTest, PartialCoverageDetected) {
  ObjectStore store(2);
  store.put(chunk_of("v", 1, Box{{0, 0, 0}, {7, 7, 3}}));
  EXPECT_FALSE(store.covers("v", 1, Box::from_dims(8, 8, 8)));
  store.put(chunk_of("v", 1, Box{{0, 0, 4}, {7, 7, 7}}));
  EXPECT_TRUE(store.covers("v", 1, Box::from_dims(8, 8, 8)));
}

TEST(ObjectStoreTest, WindowRotatesOldVersions) {
  ObjectStore store(2);
  Box r = Box::from_dims(8, 8, 8);
  for (Version v = 1; v <= 5; ++v) store.put(chunk_of("v", v, r));
  EXPECT_FALSE(store.covers("v", 3, r));
  EXPECT_TRUE(store.covers("v", 4, r));
  EXPECT_TRUE(store.covers("v", 5, r));
  EXPECT_EQ(store.latest("v"), Version{5});
  EXPECT_EQ(store.versions_of("v"), (std::vector<Version>{4, 5}));
}

TEST(ObjectStoreTest, MemoryAccountingFollowsRotation) {
  ObjectStore store(1);
  Box r = Box::from_dims(8, 8, 8);
  const std::uint64_t per_version = r.volume() * 8;
  store.put(chunk_of("v", 1, r));
  EXPECT_EQ(store.nominal_bytes(), per_version);
  store.put(chunk_of("v", 2, r));
  EXPECT_EQ(store.nominal_bytes(), per_version);  // v1 rotated out
  EXPECT_EQ(store.peak_nominal_bytes(), 2 * per_version);
}

TEST(ObjectStoreTest, StaleRePutRotatesImmediately) {
  // An individually restarted producer re-writes an old version; the store
  // accepts and immediately rotates it out (Fig. 2 case 2's wasted write).
  ObjectStore store(1);
  Box r = Box::from_dims(8, 8, 8);
  store.put(chunk_of("v", 5, r));
  store.put(chunk_of("v", 2, r));
  EXPECT_EQ(store.latest("v"), Version{5});
  EXPECT_FALSE(store.covers("v", 2, r));
}

TEST(ObjectStoreTest, DropVersionsAboveRollsBack) {
  ObjectStore store(8);
  Box r = Box::from_dims(4, 4, 4);
  for (Version v = 1; v <= 6; ++v) store.put(chunk_of("v", v, r));
  const std::size_t dropped = store.drop_versions_above(3);
  EXPECT_EQ(dropped, 3u);
  EXPECT_EQ(store.latest("v"), Version{3});
  EXPECT_EQ(store.nominal_bytes(), 3 * r.volume() * 8);
}

TEST(ObjectStoreTest, DropVersion) {
  ObjectStore store(8);
  Box r = Box::from_dims(4, 4, 4);
  store.put(chunk_of("v", 1, r));
  store.put(chunk_of("v", 2, r));
  EXPECT_TRUE(store.drop_version("v", 1));
  EXPECT_FALSE(store.drop_version("v", 1));
  EXPECT_FALSE(store.drop_version("w", 2));
  EXPECT_EQ(store.versions_of("v"), (std::vector<Version>{2}));
}

TEST(ObjectStoreTest, MultipleVariablesIndependent) {
  ObjectStore store(1);
  Box r = Box::from_dims(4, 4, 4);
  store.put(chunk_of("a", 1, r));
  store.put(chunk_of("b", 7, r));
  EXPECT_TRUE(store.covers("a", 1, r));
  EXPECT_TRUE(store.covers("b", 7, r));
  EXPECT_EQ(store.variables().size(), 2u);
  EXPECT_EQ(store.object_count(), 2u);
}

TEST(ObjectStoreTest, RejectsBadWindow) {
  EXPECT_THROW(ObjectStore(0), std::invalid_argument);
}

TEST(ObjectStoreTest, OverlappingChunksDoNotFakeCoverage) {
  // Chunks [0..3] and [2..5] on the x line sum to 8 points but cover only
  // 6 of [0..7]: the exact-coverage test must say "not covered".
  ObjectStore store(2);
  store.put(chunk_of("v", 1, Box{{0, 0, 0}, {3, 0, 0}}));
  store.put(chunk_of("v", 1, Box{{2, 0, 0}, {5, 0, 0}}));
  EXPECT_FALSE(store.covers("v", 1, Box{{0, 0, 0}, {7, 0, 0}}));
  store.put(chunk_of("v", 1, Box{{6, 0, 0}, {7, 0, 0}}));
  EXPECT_TRUE(store.covers("v", 1, Box{{0, 0, 0}, {7, 0, 0}}));
}

TEST(ObjectStoreTest, EmptyRegionTriviallyCovered) {
  ObjectStore store(1);
  store.put(chunk_of("v", 1, Box::from_dims(4, 4, 4)));
  EXPECT_TRUE(store.covers("v", 1, Box{}));
}

// --- One version store -----------------------------------------------------
//
// A server keeps one ObjectStore: the data log is its log holder. A logged
// put with the codec off is one piece both holders keep; an encoded log
// copy is a second piece only the log keeps. Each holder sees exactly its
// own pieces, and a piece's bytes leave with its last holder.

/// A logged put as the server applies it: the log first, then the window.
void logged_put(ObjectStore& store, wlog::DataLog& log, const Chunk& c) {
  log.add(c);
  store.put(c);
}

TEST(VersionStoreTest, RotatedLoggedVersionKeepsItsOneBuffer) {
  ObjectStore store(1);
  wlog::DataLog log(store);
  const Box r = Box::from_dims(8, 8, 8);
  const Chunk v1 = chunk_of("f", 1, r);
  const Chunk v2 = chunk_of("f", 2, r);
  logged_put(store, log, v1);
  EXPECT_EQ(store.nominal_bytes(Holder::kBoth), v1.nominal_bytes);
  logged_put(store, log, v2);  // rotates v1 out of the window
  EXPECT_EQ(store.versions_of("f"), (std::vector<Version>{2}));
  const std::vector<Chunk> kept = log.chunks_of("f", 1);
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0].data, v1.data);  // the put's own buffer, not a copy
  EXPECT_EQ(store.nominal_bytes(), v2.nominal_bytes);
  EXPECT_EQ(log.nominal_bytes(), v1.nominal_bytes + v2.nominal_bytes);
  EXPECT_EQ(store.nominal_bytes(Holder::kBoth),
            v1.nominal_bytes + v2.nominal_bytes);
}

TEST(VersionStoreTest, GcDropOfAWindowedVersionLeavesItReadable) {
  ObjectStore store(2);
  wlog::DataLog log(store);
  const Box r = Box::from_dims(8, 8, 8);
  for (Version v = 1; v <= 2; ++v) logged_put(store, log, chunk_of("f", v, r));
  const std::uint64_t per_version = r.volume() * 8;
  EXPECT_EQ(log.drop_upto("f", 1), 1u);
  EXPECT_FALSE(log.has("f", 1));
  ASSERT_TRUE(store.covers("f", 1, r));
  const std::vector<Chunk> pieces = store.get("f", 1, r);
  ASSERT_EQ(pieces.size(), 1u);
  EXPECT_EQ(check_chunk(pieces[0], "f", 1), ChunkCheck::kOk);
  // The window still holds both versions: nothing was freed.
  EXPECT_EQ(log.nominal_bytes(), per_version);
  EXPECT_EQ(store.nominal_bytes(Holder::kBoth), 2 * per_version);
}

TEST(VersionStoreTest, EncodedLogCopyIsAPieceOfItsOwn) {
  ObjectStore store(2);
  wlog::DataLog log(store);
  log.set_codec(wlog::codec::Scheme::kDeltaLz);
  const Box r = Box::from_dims(8, 8, 8);
  const std::uint64_t raw = r.volume() * 8;
  std::uint64_t encoded[4] = {};
  for (Version v = 1; v <= 3; ++v) {
    const std::uint64_t before = log.nominal_bytes();
    logged_put(store, log, make_chunk("f", v, r, 8.0, 1));
    encoded[v] = log.nominal_bytes() - before;
    ASSERT_GT(encoded[v], 0u);
    ASSERT_LT(encoded[v], raw);
  }
  // v1 rotated out of the window: only its raw copy left.
  EXPECT_EQ(store.versions_of("f"), (std::vector<Version>{2, 3}));
  EXPECT_EQ(log.versions_of("f"), (std::vector<Version>{1, 2, 3}));
  EXPECT_EQ(store.nominal_bytes(), 2 * raw);
  EXPECT_EQ(store.nominal_bytes(Holder::kBoth),
            2 * raw + encoded[1] + encoded[2] + encoded[3]);
  // GC of v2, still in the window, frees only its encoded copy.
  const std::uint64_t log_before = log.nominal_bytes();
  EXPECT_EQ(log.drop_upto("f", 2), 2u);
  EXPECT_EQ(store.versions_of("f"), (std::vector<Version>{2, 3}));
  EXPECT_EQ(store.nominal_bytes(), 2 * raw);
  EXPECT_EQ(store.nominal_bytes(Holder::kBoth), 2 * raw + log.nominal_bytes());
  EXPECT_LT(log.nominal_bytes(), log_before);
  for (const Chunk& piece : store.get("f", 2, r)) {
    EXPECT_EQ(check_chunk(piece, "f", 2), ChunkCheck::kOk);
  }
  for (const Chunk& piece : log.get("f", 3, r)) {
    EXPECT_EQ(check_chunk(piece, "f", 3), ChunkCheck::kOk);
  }
}

TEST(VersionStoreTest, RollbackDropsEachHolderOncePerVersion) {
  sim::Engine eng;
  obs::Recorder rec(eng);
  ObjectStore store(2, rec.track("staging-0"));
  wlog::DataLog log(store);
  const Box r = Box::from_dims(8, 8, 8);
  for (Version v = 1; v <= 4; ++v) logged_put(store, log, chunk_of("f", v, r));
  store.put(chunk_of("u", 3, r));  // unlogged: the window's alone
  std::vector<std::tuple<obs::Kind, std::string, std::int64_t>> drops;
  rec.subscribe([&](const obs::Event& e, std::string_view detail) {
    EXPECT_EQ(e.b, static_cast<std::int64_t>(DropReason::kRollback));
    drops.emplace_back(e.kind, std::string(detail), e.a);
  });
  EXPECT_EQ(store.drop_versions_above(2, {}, Holder::kBoth), 3u);
  using obs::Kind;
  EXPECT_EQ(drops, (std::vector<std::tuple<Kind, std::string, std::int64_t>>{
                       {Kind::kStoreDrop, "f", 3},
                       {Kind::kLogDrop, "f", 3},
                       {Kind::kStoreDrop, "f", 4},
                       {Kind::kLogDrop, "f", 4},
                       {Kind::kStoreDrop, "u", 3},
                   }));
  EXPECT_EQ(log.versions_of("f"), (std::vector<Version>{1, 2}));
  EXPECT_EQ(store.versions_of("f"), (std::vector<Version>{}));
  EXPECT_EQ(store.nominal_bytes(Holder::kBoth), 2 * r.volume() * 8);
}

TEST(VersionStoreTest, EachHolderSeesOnlyItsOwnPieces) {
  ObjectStore store(2);
  wlog::DataLog log(store);
  const Box r = Box::from_dims(8, 8, 8);
  logged_put(store, log, chunk_of("f", 1, r));
  store.put(chunk_of("f", 2, r));  // unlogged
  store.put(chunk_of("u", 1, r));  // unlogged variable
  // The log never lists a window-only version...
  EXPECT_EQ(log.variables(), (std::vector<std::string>{"f"}));
  EXPECT_EQ(log.versions_of("f"), (std::vector<Version>{1}));
  EXPECT_FALSE(log.has("f", 2));
  EXPECT_FALSE(log.covers("f", 2, r));
  EXPECT_TRUE(log.get("f", 2, r).empty());
  EXPECT_EQ(log.nominal_bytes(), r.volume() * 8);
  // ...so a GC sweep scans (and charges for) the log's one version only.
  gc::GarbageCollector gc;
  EXPECT_EQ(gc.sweep(log).entries_scanned, 1u);
  // And the window never sees a log-only version.
  log.add(chunk_of("f", 3, r));
  EXPECT_EQ(store.latest("f"), Version{2});
  EXPECT_FALSE(store.covers("f", 3, r));
  EXPECT_TRUE(store.get("f", 3, r).empty());
  EXPECT_EQ(store.versions_of("f"), (std::vector<Version>{1, 2}));
}

}  // namespace
}  // namespace dstage::staging
