// Redundancy policy applied by staging servers to staged and logged
// payloads (CoREC's scheme: replication for hot/small objects, erasure
// coding for capacity). The policy supplies the storage and compute cost
// model; the actual shard math is ReedSolomon.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/time.hpp"

namespace dstage::resilience {

enum class Redundancy { kNone, kReplication, kErasureCode };

struct ResiliencePolicy {
  Redundancy kind = Redundancy::kNone;
  /// Total copies (including the primary) under replication.
  int replicas = 2;
  /// RS(k, m) parameters under erasure coding.
  int rs_k = 4;
  int rs_m = 2;
  /// Throughput of producing redundancy (memcpy for replication, parity
  /// arithmetic for RS), bytes of source data per second.
  double encode_bw = 44e9;

  /// Additional bytes stored per `n` payload bytes.
  [[nodiscard]] std::uint64_t redundancy_bytes(std::uint64_t n) const;
  /// Total stored bytes per `n` payload bytes (payload + redundancy).
  [[nodiscard]] std::uint64_t stored_bytes(std::uint64_t n) const;
  /// Virtual-time cost of producing the redundancy for `n` payload bytes.
  [[nodiscard]] sim::Duration encode_time(std::uint64_t n) const;
  /// Number of surviving fragments needed to recover a payload.
  [[nodiscard]] int fragments_needed() const;
  /// Total fragments produced (1 for none, replicas for replication,
  /// k + m for erasure coding).
  [[nodiscard]] int fragments_total() const;
  /// Maximum concurrent fragment losses that remain recoverable.
  [[nodiscard]] int max_losses() const;

  /// Rejects (std::invalid_argument) configs that are fundamentally
  /// unsatisfiable on a group of `server_count` servers: degenerate
  /// parameters (replicas < 2, rs_k/rs_m < 1, non-positive encode
  /// bandwidth) or redundancy with no peer to hold a second fragment
  /// (server_count < 2). A group merely smaller than fragments_total() is
  /// allowed — placement clamps with a loud warning and a metric, and
  /// survivability degrades (see PeerRedundancy::push_fragments) — because
  /// partial redundancy still beats none.
  void validate(int server_count) const;
};

/// Deterministic placement of a payload's fragments across servers:
/// fragment j of an object owned by `owner` lands on (owner + j) % count.
/// Throws std::invalid_argument when count < fragments: the modulo would
/// silently wrap several fragments of one object onto the same server,
/// and every caller of this helper relies on the distinct-servers
/// guarantee (callers that can tolerate wrapping clamp explicitly).
std::vector<int> fragment_placement(int owner, int fragments,
                                    int server_count);

}  // namespace dstage::resilience
