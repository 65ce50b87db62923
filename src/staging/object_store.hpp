// The version store held by each staging server: one container for every
// payload piece the server retains. Each piece records its holders: the
// coupling window (DataSpaces keeps a bounded window of recent versions per
// variable; older ones rotate out on put) and the data log (wlog::DataLog
// keeps logged versions until the GC proves no replay can re-read them).
// With the log codec off a logged put is one piece both hold; an encoded
// log copy is a second piece of the same region that only the log holds.
// Every operation acts on one holder's view — the window's unless told
// otherwise — so each holder sees exactly its own pieces, and a piece and
// its bytes leave with their last holder. Bytes are counted at nominal
// (paper-scale) size, per holder and for the distinct pieces.
#pragma once

#include <array>
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

/// Why a version left a holder: the `b` payload of its drop event.
enum class DropReason {
  kRotation,  // rotated out of the coupling window
  kExplicit,  // dropped deliberately (GC reclaim)
  kRollback,  // discarded by a coordinated-restart rollback
  kSpill,     // evicted to the PFS spill gateway (still durable there)
  kResilver,  // handed off to the cell's new owner (durable there)
};

/// Who retains a piece. An operation's holder set names the view it acts
/// on; kBoth is the union of the two.
enum class Holder : std::uint8_t { kWindow = 1, kLog = 2, kBoth = 3 };

class ObjectStore {
 public:
  /// @param version_window how many most-recent versions of each variable
  ///        the window retains (older ones rotate out on put).
  /// @param track every (var, version) a holder lets go of is emitted on
  ///        `track` (detail=var, a=version, b=DropReason): kStoreDrop when
  ///        the window's last piece of it leaves, kLogDrop when the log's
  ///        does. The default detached track records nothing.
  explicit ObjectStore(int version_window = 1, obs::Track track = {});

  /// Give `holder` (kWindow or kLog) a chunk. A re-put of a region the
  /// holder already has replaces that piece. A chunk whose buffer the
  /// other holder keeps for the same region is that piece: both hold it.
  /// A window put of a new region rotates versions older than the window
  /// out.
  void put(Chunk chunk, Holder holder = Holder::kWindow);

  /// The pieces of (var, version) that `holders` keep, clipped to `region`.
  [[nodiscard]] std::vector<Chunk> get(
      const std::string& var, Version version, const Box& region,
      Holder holders = Holder::kWindow) const;

  /// True when the pieces of (var, version) that `holders` keep cover
  /// `region` entirely (producer puts are disjoint, so coverage is
  /// volume-additive).
  [[nodiscard]] bool covers(const std::string& var, Version version,
                            const Box& region,
                            Holder holders = Holder::kWindow) const;

  /// Newest version of `var` in the window.
  [[nodiscard]] std::optional<Version> latest(const std::string& var) const;

  /// Versions of `var` that `holders` keep, ascending.
  [[nodiscard]] std::vector<Version> versions_of(
      const std::string& var, Holder holders = Holder::kWindow) const;
  /// Variable names of which `holders` keep at least one version.
  [[nodiscard]] std::vector<std::string> variables(
      Holder holders = Holder::kWindow) const;
  /// True when `holders` keep any piece of (var, version).
  [[nodiscard]] bool holds(const std::string& var, Version version,
                           Holder holders = Holder::kWindow) const;

  /// Coordinated-restart rollback: `holders` let go of all versions >
  /// `version` of the variables `var_pred` selects (all when empty; a
  /// tenant-scoped rollback passes a tenant-namespace match). Returns the
  /// number of (var, version) entries any of them dropped.
  std::size_t drop_versions_above(
      Version version,
      const std::function<bool(const std::string&)>& var_pred = {},
      Holder holders = Holder::kWindow);

  /// `holders` let go of one version of a variable (GC helper). The drop
  /// event carries `reason`: kExplicit for GC reclaim, kSpill when the
  /// memory governor evicted the version to the PFS.
  bool drop_version(const std::string& var, Version version,
                    DropReason reason = DropReason::kExplicit,
                    Holder holders = Holder::kWindow);

  /// The pieces of (var, version) that `holders` keep, unclipped.
  [[nodiscard]] std::vector<Chunk> chunks_of(
      const std::string& var, Version version,
      Holder holders = Holder::kWindow) const;

  /// Replace the payload representation of `holder`'s piece at (var,
  /// version, region) in place — codec support (delta rebase /
  /// re-encode). Identity and nominal size are unchanged; footprint
  /// accounting moves to the new stored size. No drop is emitted: the
  /// held (var, version) set is unchanged.
  /// Returns false when no such piece exists.
  bool rewrite_payload(const std::string& var, Version version,
                       const Box& region,
                       std::shared_ptr<const std::vector<std::uint8_t>> data,
                       std::uint64_t stored_bytes, Holder holder);

  /// `holders` let go of the pieces of (var, version) for which `pred`
  /// returns true (resilver hand-off helper: a chunk leaves only once the
  /// new cell owner holds it). A holder's drop is emitted — with `reason` —
  /// only when its last piece of the version leaves. Returns the number of
  /// pieces let go.
  std::size_t drop_pieces(const std::string& var, Version version,
                          const std::function<bool(const Chunk&)>& pred,
                          DropReason reason = DropReason::kResilver,
                          Holder holders = Holder::kWindow);

  /// Nominal bytes of the pieces `holders` keep: a piece both hold counts
  /// in either holder's figure, and once in kBoth's — the store's distinct
  /// footprint.
  [[nodiscard]] std::uint64_t nominal_bytes(
      Holder holders = Holder::kWindow) const {
    return static_cast<std::uint64_t>(usage_[slot(holders)].current());
  }
  /// High-water mark of nominal_bytes(holders) over the store's lifetime.
  [[nodiscard]] std::uint64_t peak_nominal_bytes(
      Holder holders = Holder::kWindow) const {
    return static_cast<std::uint64_t>(usage_[slot(holders)].peak());
  }
  /// Per-tenant nominal bytes, keyed off each chunk's tenant prefix
  /// (tenant 0 for bare variable names). Drives the governor's weighted
  /// fair-share admission; zero-cost for single-tenant stores (one map
  /// entry for tenant 0).
  [[nodiscard]] std::uint64_t nominal_bytes(
      net::TenantId tenant, Holder holders = Holder::kWindow) const;
  /// Peak of a tenant's window bytes over the store's lifetime.
  [[nodiscard]] std::uint64_t peak_nominal_bytes(net::TenantId tenant) const;
  /// Tenants the window ever held bytes of, ascending.
  [[nodiscard]] std::vector<net::TenantId> tenants() const;
  /// Pieces in the window.
  [[nodiscard]] std::size_t object_count() const;

 private:
  struct Piece {
    Chunk chunk;
    std::uint8_t holders;  // Holder bits
  };
  using Versions = std::map<Version, std::vector<Piece>>;
  /// Bytes held by the window, by the log, and by either (distinct).
  using Usage = std::array<Watermark, 3>;

  static std::size_t slot(Holder holders) {
    return static_cast<std::size_t>(holders) - 1;
  }
  /// True when `holders` keep any of `pieces`.
  static bool kept(const std::vector<Piece>& pieces, Holder holders);
  /// The pieces of (var, version), or null.
  [[nodiscard]] const std::vector<Piece>* find(const std::string& var,
                                               Version version) const;
  /// Move one piece's charges from the holder bits `before` to `after`.
  void charge(const Chunk& c, std::uint8_t before, std::uint8_t after);
  /// Take `holders` off the pieces of one version that `pred` selects,
  /// erasing pieces no holder keeps any more; emits the drop of each
  /// holder whose last piece of the version left. Returns the number of
  /// pieces let go.
  std::size_t release(const std::string& var, Version version,
                      std::vector<Piece>& pieces, std::uint8_t holders,
                      DropReason reason,
                      const std::function<bool(const Chunk&)>& pred);
  /// Rotate the window versions of `var` beyond the retention window out.
  void rotate(const std::string& var, Versions& versions);

  int version_window_;
  // var → version → pieces
  std::map<std::string, Versions> store_;
  Usage usage_{};
  std::map<net::TenantId, Usage> tenant_usage_;
  obs::Track track_;
};

}  // namespace dstage::staging
