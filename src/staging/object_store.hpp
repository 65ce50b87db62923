// Versioned in-memory object store held by each staging server. The base
// store keeps a bounded window of recent versions per variable (DataSpaces
// retains the latest coupling data; historical versions belong to the data
// log). All byte accounting distinguishes nominal (paper-scale) from
// physical (scaled-down) sizes.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "obs/recorder.hpp"
#include "staging/types.hpp"
#include "util/stats.hpp"

namespace dstage::staging {

/// Why a version left the store: the `b` payload of its drop event.
enum class DropReason {
  kRotation,  // rotated out of the base store's version window
  kExplicit,  // dropped deliberately (GC reclaim)
  kRollback,  // discarded by a coordinated-restart rollback
  kSpill,     // evicted to the PFS spill gateway (still durable there)
  kResilver,  // handed off to the cell's new owner (durable there)
};

class ObjectStore {
 public:
  /// @param version_window how many most-recent versions of each variable
  ///        the base store retains (older ones rotate out on put).
  /// @param track, drop_kind every (var, version) that leaves the store is
  ///        emitted on `track` as `drop_kind` (detail=var, a=version,
  ///        b=DropReason); the default detached track records nothing.
  explicit ObjectStore(int version_window = 1, obs::Track track = {},
                       obs::Kind drop_kind = obs::Kind::kStoreDrop);

  /// Insert a chunk; rotates versions older than the window out.
  void put(Chunk chunk);

  /// All stored pieces of (var, version) clipped to `region`.
  [[nodiscard]] std::vector<Chunk> get(const std::string& var,
                                       Version version,
                                       const Box& region) const;

  /// True when stored pieces of (var, version) cover `region` entirely
  /// (producer puts are disjoint, so coverage is volume-additive).
  [[nodiscard]] bool covers(const std::string& var, Version version,
                            const Box& region) const;

  [[nodiscard]] std::optional<Version> latest(const std::string& var) const;

  /// Stored versions of `var`, ascending.
  [[nodiscard]] std::vector<Version> versions_of(const std::string& var) const;
  /// All variable names with at least one stored version.
  [[nodiscard]] std::vector<std::string> variables() const;

  /// Coordinated-restart rollback: drop all versions > `version` of every
  /// variable. Returns the number of dropped (var, version) entries.
  std::size_t drop_versions_above(Version version);

  /// Tenant-scoped rollback: drop all versions > `version`, but only of
  /// variables for which `var_pred` returns true (tenant-namespace match).
  std::size_t drop_versions_above(
      Version version, const std::function<bool(const std::string&)>& var_pred);

  /// Explicitly drop one version of a variable (GC helper). The drop event
  /// carries `reason`: kExplicit for GC reclaim, kSpill when the memory
  /// governor evicted the version to the PFS.
  bool drop_version(const std::string& var, Version version,
                    DropReason reason = DropReason::kExplicit);

  /// All stored pieces of (var, version), unclipped (spill-eviction helper).
  [[nodiscard]] std::vector<Chunk> chunks_of(const std::string& var,
                                             Version version) const;

  /// Replace the payload representation of the piece at (var, version,
  /// region) in place — codec support (delta rebase / re-encode). Identity
  /// and nominal size are unchanged; footprint accounting moves to the new
  /// stored size. No drop is emitted: the held (var, version) set is
  /// unchanged.
  /// Returns false when no such piece exists.
  bool rewrite_payload(const std::string& var, Version version,
                       const Box& region,
                       std::shared_ptr<const std::vector<std::uint8_t>> data,
                       std::uint64_t stored_bytes);

  /// Drop the individual pieces of (var, version) for which `pred` returns
  /// true (resilver hand-off helper: a chunk leaves only once the new cell
  /// owner holds it). The drop is emitted — with `reason` — only when the
  /// version's last piece leaves. Returns the number of pieces dropped.
  std::size_t drop_pieces(const std::string& var, Version version,
                          const std::function<bool(const Chunk&)>& pred,
                          DropReason reason = DropReason::kResilver);

  [[nodiscard]] std::uint64_t nominal_bytes() const { return nominal_bytes_; }
  [[nodiscard]] std::uint64_t physical_bytes() const {
    return physical_bytes_;
  }
  [[nodiscard]] std::uint64_t peak_nominal_bytes() const {
    return static_cast<std::uint64_t>(watermark_.peak());
  }
  /// Per-tenant nominal footprint, keyed off each chunk's tenant prefix
  /// (tenant 0 for bare variable names). Drives the governor's weighted
  /// fair-share admission; zero-cost for single-tenant stores (one map
  /// entry for tenant 0).
  [[nodiscard]] std::uint64_t nominal_bytes(net::TenantId tenant) const;
  /// Peak of a tenant's nominal footprint over the store's lifetime.
  [[nodiscard]] std::uint64_t peak_nominal_bytes(net::TenantId tenant) const;
  /// Tenants with a nonzero lifetime footprint, ascending.
  [[nodiscard]] std::vector<net::TenantId> tenants() const;
  [[nodiscard]] std::size_t object_count() const;
  [[nodiscard]] int version_window() const { return version_window_; }

  /// Pair the two stores of one server that can hold a piece in the same
  /// payload buffer: the base store and the data log's store (with the
  /// codec off, a logged put's log piece *is* its store piece). From then
  /// on both keep shared_bytes() up to date as pieces enter and leave
  /// either one, so `nominal_bytes() + twin.nominal_bytes() −
  /// shared_bytes()` charges each held buffer once. Both must be empty.
  /// Each store keeps the other's address: neither may be copied or moved
  /// once paired (StagingServer holds both and is itself not copyable).
  void pair_with(ObjectStore& twin);
  /// Nominal bytes of the payload buffers this store and its twin both
  /// hold (equal on both sides; 0 when unpaired).
  [[nodiscard]] std::uint64_t shared_bytes() const;
  /// The shared bytes of one tenant's variables.
  [[nodiscard]] std::uint64_t shared_bytes(net::TenantId tenant) const;

 private:
  /// Charge (sign > 0) or release one piece, and move the shared term
  /// when the twin holds the same buffer.
  void account(const Chunk& c, int sign);
  /// The piece of (c.var, c.version) held in c's buffer, or null.
  [[nodiscard]] const Chunk* holding(const Chunk& c) const;
  void emit_drop(const std::string& var, Version version,
                 DropReason reason) const {
    track_.emit(drop_kind_, var, static_cast<std::int64_t>(version),
                static_cast<std::int64_t>(reason));
  }

  int version_window_;
  obs::Kind drop_kind_;  // one byte: packed beside the window, not at the end
  // var → version → pieces
  std::map<std::string, std::map<Version, std::vector<Chunk>>> store_;
  std::uint64_t nominal_bytes_ = 0;
  std::uint64_t physical_bytes_ = 0;
  Watermark watermark_;
  struct TenantUsage {
    std::uint64_t nominal = 0;
    std::uint64_t peak = 0;
    std::uint64_t shared = 0;
  };
  std::map<net::TenantId, TenantUsage> tenant_usage_;
  ObjectStore* twin_ = nullptr;
  obs::Track track_;
};

}  // namespace dstage::staging
