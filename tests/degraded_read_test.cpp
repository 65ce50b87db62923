// Degraded reads: reconstructing owner chunks from redundancy fragments.
// Exhaustive loss-pattern coverage over the RS(k, m) configurations the
// staging policies use, plus the typed data-loss error when losses exceed
// the policy's tolerance.
#include "staging/degraded_read.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "resilience/reed_solomon.hpp"
#include "staging/types.hpp"

namespace dstage::staging {
namespace {

constexpr double kBytesPerPoint = 8.0;
constexpr std::uint64_t kMemScale = 64;

Chunk owner_chunk(const Box& region, Version version = 3) {
  return make_chunk("f", version, region, kBytesPerPoint, kMemScale);
}

FragmentPut fragment_of(const Chunk& chunk, int frag_index,
                        std::uint64_t nominal,
                        std::vector<std::uint8_t> bytes) {
  FragmentPut f;
  f.owner = 0;
  f.var = chunk.var;
  f.version = chunk.version;
  f.region = chunk.region;
  f.frag_index = frag_index;
  f.nominal_bytes = nominal;
  f.original_physical = chunk.data->size();
  f.content_key = chunk.content_key;
  f.data = std::make_shared<const std::vector<std::uint8_t>>(std::move(bytes));
  return f;
}

/// The full RS fragment set for one owner chunk, index 0 .. k+m-1, shaped
/// exactly like PeerRedundancy::push_fragments shapes them.
std::vector<FragmentPut> rs_fragments(const Chunk& chunk,
                                      const resilience::ResiliencePolicy& p) {
  const resilience::ReedSolomon rs(p.rs_k, p.rs_m);
  const auto shards = rs.encode(std::span{*chunk.data});
  const std::uint64_t shard_nominal =
      chunk.nominal_bytes / static_cast<std::uint64_t>(p.rs_k);
  std::vector<FragmentPut> frags;
  for (std::size_t i = 0; i < shards.size(); ++i) {
    frags.push_back(fragment_of(chunk, static_cast<int>(i), shard_nominal,
                                shards[i]));
  }
  return frags;
}

resilience::ResiliencePolicy ec_policy(int k, int m) {
  resilience::ResiliencePolicy p;
  p.kind = resilience::Redundancy::kErasureCode;
  p.rs_k = k;
  p.rs_m = m;
  return p;
}

ObjectDesc desc_for(const Chunk& chunk) {
  ObjectDesc d;
  d.var = chunk.var;
  d.version = chunk.version;
  d.region = chunk.region;
  return d;
}

TEST(DegradedReadTest, ExhaustiveErasureLossPatterns) {
  // For every deployed RS shape, walk every subset of surviving peer
  // fragments (the owner's shard 0 died with the owner). Any >= k
  // survivors reconstruct byte-identical data; fewer raise the typed
  // data-loss error.
  const Box region = Box::from_dims(8, 8, 8);
  for (const auto& [k, m] : {std::pair{2, 1}, std::pair{2, 2},
                             std::pair{3, 2}, std::pair{4, 2}}) {
    const auto policy = ec_policy(k, m);
    const Chunk chunk = owner_chunk(region);
    const auto all = rs_fragments(chunk, policy);
    const int peers = k + m - 1;  // shards 1 .. k+m-1 live on peers
    for (unsigned mask = 0; mask < (1u << peers); ++mask) {
      std::vector<FragmentPut> survivors;
      for (int i = 0; i < peers; ++i) {
        if (mask & (1u << i)) survivors.push_back(all[1 + i]);
      }
      const int alive = static_cast<int>(survivors.size());
      const std::string label = "RS(" + std::to_string(k) + "," +
                                std::to_string(m) + ") mask " +
                                std::to_string(mask);
      if (alive >= k) {
        const auto rec =
            reconstruct_from_fragments(survivors, desc_for(chunk), policy);
        ASSERT_EQ(rec.pieces.size(), 1u) << label;
        ASSERT_TRUE(rec.pieces[0].data != nullptr) << label;
        EXPECT_EQ(*rec.pieces[0].data, *chunk.data) << label;
        EXPECT_EQ(rec.chunks_rebuilt, 1u) << label;
      } else {
        EXPECT_THROW(
            reconstruct_from_fragments(survivors, desc_for(chunk), policy),
            DataLossError)
            << label;
      }
    }
  }
}

TEST(DegradedReadTest, OwnerShardAloneCountsTowardK) {
  // A resilver in flight can leave the owner's systematic shard 0 on the
  // wire; it participates like any other shard.
  const auto policy = ec_policy(2, 1);
  const Chunk chunk = owner_chunk(Box::from_dims(8, 8, 8));
  const auto all = rs_fragments(chunk, policy);
  const std::vector<FragmentPut> survivors = {all[0], all[1]};
  const auto rec =
      reconstruct_from_fragments(survivors, desc_for(chunk), policy);
  ASSERT_EQ(rec.pieces.size(), 1u);
  EXPECT_EQ(*rec.pieces[0].data, *chunk.data);
}

TEST(DegradedReadTest, ReplicationLossPatterns) {
  resilience::ResiliencePolicy policy;
  policy.kind = resilience::Redundancy::kReplication;
  policy.replicas = 3;
  const Chunk chunk = owner_chunk(Box::from_dims(8, 8, 8));
  // Peer replicas are full copies (frag_index 1 and 2).
  std::vector<FragmentPut> replicas;
  for (int j = 1; j < policy.replicas; ++j) {
    replicas.push_back(
        fragment_of(chunk, j, chunk.nominal_bytes, *chunk.data));
  }
  for (unsigned mask = 0; mask < 4u; ++mask) {
    std::vector<FragmentPut> survivors;
    for (int i = 0; i < 2; ++i) {
      if (mask & (1u << i)) survivors.push_back(replicas[i]);
    }
    if (survivors.empty()) {
      EXPECT_THROW(
          reconstruct_from_fragments(survivors, desc_for(chunk), policy),
          DataLossError);
    } else {
      const auto rec =
          reconstruct_from_fragments(survivors, desc_for(chunk), policy);
      ASSERT_EQ(rec.pieces.size(), 1u);
      EXPECT_EQ(*rec.pieces[0].data, *chunk.data);
      EXPECT_EQ(rec.nominal_bytes, chunk.nominal_bytes);
    }
  }
}

TEST(DegradedReadTest, CorruptFragmentFailsVerificationNotServes) {
  const auto policy = ec_policy(2, 1);
  const Chunk chunk = owner_chunk(Box::from_dims(8, 8, 8));
  auto all = rs_fragments(chunk, policy);
  // Flip one byte of a surviving shard: the decode "succeeds" but the
  // rebuilt payload must fail content verification and read as loss.
  std::vector<std::uint8_t> bad = *all[1].data;
  bad[bad.size() / 2] ^= 0xff;
  std::vector<FragmentPut> survivors = {
      fragment_of(chunk, 1, all[1].nominal_bytes, std::move(bad)), all[2]};
  EXPECT_THROW(
      reconstruct_from_fragments(survivors, desc_for(chunk), policy),
      DataLossError);
}

TEST(DegradedReadTest, MultiChunkRegionsReassembleAndClip) {
  // Two owner chunks protect adjacent slabs; a read spanning both
  // reconstructs both, and a read of one slab only needs that slab's
  // fragments.
  const auto policy = ec_policy(2, 1);
  Box left = Box::from_dims(8, 8, 8);
  Box right = left;
  right.lo.x += 8;
  right.hi.x += 8;
  const Chunk a = owner_chunk(left);
  const Chunk b = owner_chunk(right);
  auto frags = rs_fragments(a, policy);
  const auto more = rs_fragments(b, policy);
  frags.insert(frags.end(), more.begin() + 1, more.end());

  Box both = left;
  both.hi.x = right.hi.x;
  ObjectDesc desc;
  desc.var = a.var;
  desc.version = a.version;
  desc.region = both;
  const auto rec = reconstruct_from_fragments(frags, desc, policy);
  EXPECT_EQ(rec.chunks_rebuilt, 2u);
  std::uint64_t points = 0;
  for (const Chunk& piece : rec.pieces) {
    points += static_cast<std::uint64_t>(
        piece.region.intersection(both).volume());
  }
  EXPECT_EQ(points, static_cast<std::uint64_t>(both.volume()));

  // Fragments for the right slab alone cannot cover a read of both.
  const std::vector<FragmentPut> right_only(more.begin() + 1, more.end());
  EXPECT_THROW(reconstruct_from_fragments(right_only, desc, policy),
               DataLossError);
}

TEST(DegradedReadTest, DataLossErrorCarriesTypedContext) {
  const auto policy = ec_policy(4, 2);
  const Chunk chunk = owner_chunk(Box::from_dims(8, 8, 8), /*version=*/7);
  const auto all = rs_fragments(chunk, policy);
  // Three survivors < k = 4.
  const std::vector<FragmentPut> survivors(all.begin() + 1, all.begin() + 4);
  try {
    (void)reconstruct_from_fragments(survivors, desc_for(chunk), policy);
    FAIL() << "expected DataLossError";
  } catch (const DataLossError& e) {
    EXPECT_EQ(e.var(), "f");
    EXPECT_EQ(e.version(), 7u);
    EXPECT_NE(std::string(e.what()).find("data loss"), std::string::npos);
  }
}

}  // namespace
}  // namespace dstage::staging
