// Degraded reads: reconstruct a requested object region from redundancy
// fragments gathered off surviving peers, without waiting for the owner's
// recovery (or for a resilver in flight to finish). Pure decode/verify
// logic — the client owns the fabric traffic (FragmentFetch broadcast) and
// the virtual-time cost of the decode; this helper only turns fragments
// into verified chunks.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "resilience/policy.hpp"
#include "staging/types.hpp"

namespace dstage::staging {

/// A request to a server that failed with no replacement coming:
/// "staging degraded: server N unrecovered". Raised by
/// the client's peer check when a put or get starts or exhausts its
/// retries, so it marks exactly the failures a degraded read may serve
/// from redundancy fragments.
class StagingDegradedError : public std::runtime_error {
 public:
  explicit StagingDegradedError(int server)
      : std::runtime_error("staging degraded: server " +
                           std::to_string(server) + " unrecovered") {}
};

/// Typed terminal error for a degraded read: more fragments were lost than
/// the resilience policy tolerates (beyond m for RS(k, m), every replica
/// for replication), so the requested region cannot be reconstructed. A
/// distinct type — not a timeout — so callers can tell data loss from a
/// slow or partitioned group.
class DataLossError : public std::runtime_error {
 public:
  DataLossError(const std::string& var, Version version,
                const std::string& detail)
      : std::runtime_error("data loss: " + var + " v" +
                           std::to_string(version) + ": " + detail),
        var_(var),
        version_(version) {}

  [[nodiscard]] const std::string& var() const { return var_; }
  [[nodiscard]] Version version() const { return version_; }

 private:
  std::string var_;
  Version version_;
};

/// Outcome of one degraded reconstruction.
struct DegradedReconstruction {
  /// Verified pieces clipped to the requested region.
  std::vector<Chunk> pieces;
  /// Owner chunks rebuilt from fragments (before clipping).
  std::size_t chunks_rebuilt = 0;
  /// Nominal bytes of the rebuilt chunks (decode-cost input).
  std::uint64_t nominal_bytes = 0;
};

/// Rebuild one owner chunk from fragments of one (var, version, region),
/// duplicates allowed, verified against its content key: the first replica
/// that verifies, or a Reed–Solomon decode. nullopt when none verifies.
std::optional<Chunk> reconstruct_chunk(
    const std::vector<const FragmentPut*>& frags,
    const resilience::ResiliencePolicy& policy);

/// Reconstruct `desc.region` of (desc.var, desc.version) from `fragments`
/// (the union of every surviving peer's holdings for the owner, possibly
/// with duplicates). Every rebuilt chunk is verified against its content
/// key before it is served. Throws DataLossError when the surviving
/// fragments cannot cover the requested region.
DegradedReconstruction reconstruct_from_fragments(
    const std::vector<FragmentPut>& fragments, const ObjectDesc& desc,
    const resilience::ResiliencePolicy& policy);

}  // namespace dstage::staging
