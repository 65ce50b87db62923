// Epoch-aware ownership in the spatial index: membership changes move the
// minimum set of cells, snapshots stay stable while the live map
// rebalances, and malformed grids are rejected up front.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>

#include "dht/spatial_index.hpp"

namespace dstage::dht {
namespace {

constexpr int kCells = 8;
const Box kDomain = Box::from_dims(64, 64, 64);

std::map<std::uint64_t, int> owner_map(const SpatialIndex& index) {
  std::map<std::uint64_t, int> owners;
  const PlacementView view = index.snapshot();
  for (std::uint64_t c = 0; c < view.owners->size(); ++c) {
    owners[c] = (*view.owners)[c];
  }
  return owners;
}

TEST(DhtElasticTest, RejectsNonPositiveCellsPerAxis) {
  EXPECT_THROW(SpatialIndex(kDomain, 2, 0), std::invalid_argument);
  EXPECT_THROW(SpatialIndex(kDomain, 2, -1), std::invalid_argument);
  EXPECT_THROW(SpatialIndex(kDomain, 2, -8), std::invalid_argument);
  // Power-of-two grids stay accepted.
  EXPECT_NO_THROW(SpatialIndex(kDomain, 2, 1));
  EXPECT_NO_THROW(SpatialIndex(kDomain, 2, 8));
}

TEST(DhtElasticTest, EpochZeroMatchesFixedGroupPlacement) {
  // The elastic index at epoch 0 must place exactly like a fresh
  // fixed-group index: the golden digests ride on this equivalence.
  SpatialIndex fixed(kDomain, 3, kCells);
  SpatialIndex elastic(kDomain, 3, kCells);
  (void)elastic.snapshot();
  EXPECT_EQ(elastic.epoch(), 0u);
  EXPECT_EQ(owner_map(fixed), owner_map(elastic));
  EXPECT_EQ(elastic.active_servers(), (std::vector<int>{0, 1, 2}));
}

TEST(DhtElasticTest, AddServerMovesOnlyReportedCells) {
  SpatialIndex index(kDomain, 3, kCells);
  const auto before = owner_map(index);

  const std::vector<CellMove> moves = index.add_server(3);
  EXPECT_EQ(index.epoch(), 1u);
  EXPECT_FALSE(moves.empty());

  const auto after = owner_map(index);
  std::set<std::uint64_t> moved;
  for (const CellMove& m : moves) {
    moved.insert(m.cell);
    EXPECT_EQ(m.to, 3);
    EXPECT_EQ(before.at(m.cell), m.from);
    EXPECT_EQ(after.at(m.cell), 3);
  }
  // Every cell not named in the move list keeps its owner.
  for (const auto& [cell, owner] : before) {
    if (moved.count(cell) == 0) {
      EXPECT_EQ(after.at(cell), owner);
    }
  }
  // The newcomer's share is an even split (within one cell per donor).
  const auto per_server = index.cells_per_server();
  const std::uint64_t total = kCells * std::uint64_t{kCells} * kCells;
  EXPECT_NEAR(static_cast<double>(per_server[3]),
              static_cast<double>(total) / 4.0, 3.0);
}

TEST(DhtElasticTest, RemoveServerReassignsOnlyItsCells) {
  SpatialIndex index(kDomain, 4, kCells);
  const auto before = owner_map(index);

  const std::vector<CellMove> moves = index.remove_server(2);
  EXPECT_EQ(index.epoch(), 1u);
  const auto after = owner_map(index);

  std::set<std::uint64_t> moved;
  for (const CellMove& m : moves) {
    moved.insert(m.cell);
    EXPECT_EQ(m.from, 2);
    EXPECT_NE(m.to, 2);
    EXPECT_EQ(after.at(m.cell), m.to);
  }
  for (const auto& [cell, owner] : before) {
    if (owner == 2) {
      EXPECT_TRUE(moved.count(cell) > 0);
    } else {
      EXPECT_EQ(after.at(cell), owner);
    }
  }
  const auto active = index.active_servers();
  EXPECT_EQ(active, (std::vector<int>{0, 1, 3}));
}

TEST(DhtElasticTest, SnapshotStaysStableAcrossRebalance) {
  SpatialIndex index(kDomain, 3, kCells);
  const PlacementView old_view = index.snapshot();
  const auto moves = index.add_server(3);
  ASSERT_FALSE(moves.empty());

  // Pick a moved cell with a non-empty box and compare routing through the
  // stale snapshot vs the live map.
  for (const CellMove& m : moves) {
    const Box box = index.cell_box_of(m.cell);
    if (box.empty()) continue;
    const auto live = index.place(box);
    ASSERT_EQ(live.size(), 1u);
    EXPECT_EQ(live[0].server, m.to);
    const auto stale = index.place(box, old_view);
    ASSERT_EQ(stale.size(), 1u);
    EXPECT_EQ(stale[0].server, m.from);
    EXPECT_EQ(index.sole_owner(box), m.to);
    return;
  }
  FAIL() << "no moved cell with a non-empty box";
}

TEST(DhtElasticTest, GrowAndShrinkKeepsFullCoverage) {
  SpatialIndex index(kDomain, 3, kCells);
  (void)index.add_server(3);
  (void)index.add_server(4);
  (void)index.remove_server(0);
  EXPECT_EQ(index.epoch(), 3u);
  EXPECT_EQ(index.active_servers(), (std::vector<int>{1, 2, 3, 4}));

  // Whole-domain query covers every point across the active set only.
  std::uint64_t points = 0;
  for (const Placement& p : index.place(kDomain)) {
    EXPECT_NE(p.server, 0);
    points += p.total_points;
  }
  EXPECT_EQ(points, static_cast<std::uint64_t>(kDomain.volume()));
}

TEST(DhtElasticTest, SoleOwnerDetectsSplitRegions) {
  SpatialIndex index(kDomain, 2, kCells);
  // The whole domain spans both servers.
  EXPECT_EQ(index.sole_owner(kDomain), -1);
  // A single cell has exactly one owner.
  const Box cell = index.cell_box(0, 0, 0);
  EXPECT_GE(index.sole_owner(cell), 0);
  // Outside the domain there is no owner.
  Box outside = Box::from_dims(4, 4, 4);
  outside.lo.x += 1000;
  outside.hi.x += 1000;
  EXPECT_EQ(index.sole_owner(outside), -1);
}

}  // namespace
}  // namespace dstage::dht
