#include "dht/spatial_index.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "util/rng.hpp"

namespace dstage::dht {
namespace {

TEST(SpatialIndexTest, RejectsBadArguments) {
  EXPECT_THROW(SpatialIndex(Box{}, 4), std::invalid_argument);
  EXPECT_THROW(SpatialIndex(Box::from_dims(8, 8, 8), 0), std::invalid_argument);
  EXPECT_THROW(SpatialIndex(Box::from_dims(8, 8, 8), 4, 3),
               std::invalid_argument);  // non power of two
}

TEST(SpatialIndexTest, SingleServerOwnsEverything) {
  SpatialIndex idx(Box::from_dims(64, 64, 64), 1, 8);
  EXPECT_EQ(idx.server_of(Point3{0, 0, 0}), 0);
  EXPECT_EQ(idx.server_of(Point3{63, 63, 63}), 0);
  auto placements = idx.place(Box::from_dims(64, 64, 64));
  ASSERT_EQ(placements.size(), 1u);
  EXPECT_EQ(placements[0].server, 0);
  EXPECT_EQ(placements[0].total_points, 64ull * 64 * 64);
}

TEST(SpatialIndexTest, PlacementCoversQueryExactly) {
  SpatialIndex idx(Box::from_dims(128, 128, 128), 7, 8);
  Box query{{10, 20, 30}, {100, 90, 120}};
  std::uint64_t covered = 0;
  for (const auto& p : idx.place(query)) {
    for (const Box& piece : p.pieces) {
      EXPECT_TRUE(query.contains(piece));
      covered += piece.volume();
    }
  }
  EXPECT_EQ(covered, query.volume());
}

TEST(SpatialIndexTest, PlacementPiecesAreDisjoint) {
  SpatialIndex idx(Box::from_dims(64, 64, 64), 5, 8);
  Box query{{3, 3, 3}, {60, 50, 40}};
  std::vector<Box> all;
  for (const auto& p : idx.place(query)) {
    for (const Box& piece : p.pieces) all.push_back(piece);
  }
  for (std::size_t i = 0; i < all.size(); ++i) {
    for (std::size_t j = i + 1; j < all.size(); ++j) {
      EXPECT_FALSE(all[i].intersects(all[j]))
          << all[i].str() << " vs " << all[j].str();
    }
  }
}

TEST(SpatialIndexTest, PlacementAgreesWithPointOwnership) {
  SpatialIndex idx(Box::from_dims(64, 64, 64), 4, 8);
  Box query{{0, 0, 0}, {31, 31, 31}};
  for (const auto& p : idx.place(query)) {
    for (const Box& piece : p.pieces) {
      EXPECT_EQ(idx.server_of(piece.lo), p.server);
      EXPECT_EQ(idx.server_of(piece.hi), p.server);
    }
  }
}

TEST(SpatialIndexTest, LoadIsBalanced) {
  // SFC partitioning into equal curve segments keeps cell counts within a
  // factor ~2 of ideal even for awkward server counts.
  for (int servers : {2, 3, 5, 8, 13}) {
    SpatialIndex idx(Box::from_dims(256, 256, 256), servers, 16);
    auto counts = idx.cells_per_server();
    const auto total =
        std::accumulate(counts.begin(), counts.end(), std::uint64_t{0});
    EXPECT_EQ(total, 16ull * 16 * 16);
    const double ideal = static_cast<double>(total) / servers;
    for (auto c : counts) {
      EXPECT_GT(static_cast<double>(c), 0.4 * ideal) << servers << " servers";
      EXPECT_LT(static_cast<double>(c), 2.1 * ideal) << servers << " servers";
    }
  }
}

TEST(SpatialIndexTest, QueryOutsideDomainIsEmpty) {
  SpatialIndex idx(Box::from_dims(32, 32, 32), 2, 4);
  EXPECT_TRUE(idx.place(Box{{40, 40, 40}, {50, 50, 50}}).empty());
  EXPECT_TRUE(idx.place(Box{}).empty());
}

TEST(SpatialIndexTest, QueryClippedToDomain) {
  SpatialIndex idx(Box::from_dims(32, 32, 32), 2, 4);
  auto placements = idx.place(Box{{16, 16, 16}, {100, 100, 100}});
  std::uint64_t covered = 0;
  for (const auto& p : placements) covered += p.total_points;
  EXPECT_EQ(covered, 16ull * 16 * 16);
}

TEST(SpatialIndexTest, XRunMergingBoundsPieceCount) {
  SpatialIndex idx(Box::from_dims(128, 128, 128), 4, 8);
  auto placements = idx.place(Box::from_dims(128, 128, 128));
  std::size_t pieces = 0;
  for (const auto& p : placements) pieces += p.pieces.size();
  // 8x8x8 = 512 cells; x-run merging must compress well below that.
  EXPECT_LE(pieces, 128u);
  EXPECT_GE(pieces, 4u);
}

TEST(SpatialIndexTest, SpatialLocality) {
  // Neighbouring sub-boxes should mostly land on few servers: a small query
  // never touches every server of a large fleet.
  SpatialIndex idx(Box::from_dims(256, 256, 256), 64, 16);
  Box small{{0, 0, 0}, {31, 31, 31}};
  auto placements = idx.place(small);
  EXPECT_LE(placements.size(), 8u);
}

TEST(SpatialIndexTest, DomainNotStartingAtOrigin) {
  Box domain{{100, 200, 300}, {163, 263, 363}};
  SpatialIndex idx(domain, 4, 8);
  auto placements = idx.place(domain);
  std::uint64_t covered = 0;
  for (const auto& p : placements) covered += p.total_points;
  EXPECT_EQ(covered, domain.volume());
  EXPECT_THROW((void)idx.server_of(Point3{0, 0, 0}), std::out_of_range);
}

TEST(SpatialIndexTest, DeterministicPlacement) {
  SpatialIndex a(Box::from_dims(64, 64, 64), 6, 8);
  SpatialIndex b(Box::from_dims(64, 64, 64), 6, 8);
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    Box q{{rng.uniform_int(0, 30), rng.uniform_int(0, 30),
           rng.uniform_int(0, 30)},
          {rng.uniform_int(31, 63), rng.uniform_int(31, 63),
           rng.uniform_int(31, 63)}};
    auto pa = a.place(q);
    auto pb = b.place(q);
    ASSERT_EQ(pa.size(), pb.size());
    for (std::size_t k = 0; k < pa.size(); ++k) {
      EXPECT_EQ(pa[k].server, pb[k].server);
      EXPECT_EQ(pa[k].pieces.size(), pb[k].pieces.size());
    }
  }
}

}  // namespace
}  // namespace dstage::dht
