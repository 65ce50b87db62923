// Payload retention for replay (the Data Logging Component's storage half).
// While the base ObjectStore keeps only the current coupling window, the
// data log retains every logged version that a rolled-back consumer might
// re-read, until the garbage collector proves it unreachable.
//
// With a codec scheme armed (WorkflowSpec::wlog.codec), payloads are
// encoded at retain time — LZ block compression, optionally XOR-deltaed
// against the previous retained version of the same region — and decoded
// transparently on every read. Deltas are single-level: a delta's base is
// always a full (non-delta) block, so a read needs at most one base
// lookup, and any drop path rebases dependent deltas to full blocks
// *before* their base leaves. Exported chunks (spill, resilver) are always
// self-contained: a delta is re-encoded as a full block first, so the
// receiving side can re-ingest or decode without access to this log.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "staging/object_store.hpp"
#include "staging/types.hpp"
#include "wlog/codec.hpp"

namespace dstage::wlog {

/// Codec activity counters (surfaced through StagingMetrics).
struct CodecStats {
  std::uint64_t raw_bytes = 0;      // nominal bytes presented for encoding
  std::uint64_t stored_bytes = 0;   // nominal-scale bytes after encoding
  std::uint64_t blocks_encoded = 0;
  std::uint64_t delta_blocks = 0;   // encoded against a prior version
  std::uint64_t rebases = 0;        // deltas re-encoded full before a drop
};

class DataLog {
 public:
  /// Every (var, version) the log releases is emitted on `track` as
  /// obs::Kind::kLogDrop (detail=var, a=version, b=staging::DropReason).
  explicit DataLog(obs::Track track = {})
      : store_(1 << 30, track, obs::Kind::kLogDrop) {}  // unbounded window

  /// Arm the payload codec; kNone (the default) retains raw buffers and
  /// leaves every path byte-identical to the pre-codec log.
  void set_codec(codec::Scheme scheme) { scheme_ = scheme; }
  [[nodiscard]] codec::Scheme codec_scheme() const { return scheme_; }
  [[nodiscard]] const CodecStats& codec_stats() const { return codec_stats_; }

  /// Pair the log with its server's base store, so a raw log piece that
  /// shares its buffer with a store piece is charged once (see
  /// ObjectStore::pair_with).
  void share_buffers_with(staging::ObjectStore& base) {
    store_.pair_with(base);
  }

  /// Retain a logged payload. With the codec off the bytes stay shared
  /// with the base store's buffer; with a scheme armed the log stores an
  /// encoded copy (an already-encoded chunk — spill fault-in, resilver —
  /// is re-ingested as-is).
  void add(staging::Chunk chunk);

  /// Decoded (raw-byte) pieces of (var, version) clipped to `region` —
  /// every read path (replay, slow consumer, recovery) sees exactly the
  /// bytes that were retained, whatever the stored representation.
  [[nodiscard]] std::vector<staging::Chunk> get(const std::string& var,
                                                staging::Version version,
                                                const Box& region) const;
  [[nodiscard]] bool covers(const std::string& var, staging::Version version,
                            const Box& region) const {
    return store_.covers(var, version, region);
  }

  /// Retained versions of `var`, ascending.
  [[nodiscard]] std::vector<staging::Version> versions_of(
      const std::string& var) const;
  [[nodiscard]] std::vector<std::string> variables() const;

  /// All retained pieces of one version, unclipped and in their stored
  /// representation (index walks; not for export — see export_chunks).
  [[nodiscard]] std::vector<staging::Chunk> chunks_of(
      const std::string& var, staging::Version version) const {
    return store_.chunks_of(var, version);
  }
  /// Self-contained pieces of one version for spill/resilver export:
  /// delta blocks are rebased to full blocks first (in place), so the
  /// receiver never needs this log's base versions to decode.
  [[nodiscard]] std::vector<staging::Chunk> export_chunks(
      const std::string& var, staging::Version version);
  /// True when the log retains any piece of (var, version).
  [[nodiscard]] bool has(const std::string& var,
                         staging::Version version) const {
    return !store_.chunks_of(var, version).empty();
  }
  /// Memory-governor eviction: drop one retained version because its
  /// payload now lives on the PFS spill gateway. Reported to the oracle's
  /// drop probe as kSpill (durability is preserved, just relocated).
  bool drop_spilled(const std::string& var, staging::Version version) {
    rebase_dependents(var, version);
    return store_.drop_version(var, version, staging::DropReason::kSpill);
  }

  /// Elastic rebalance: drop the retained pieces of (var, version) that
  /// the cell's new owner now logs. Reported as kResilver only when the
  /// version's last piece leaves (durability moved, not lost).
  std::size_t drop_resilvered(
      const std::string& var, staging::Version version,
      const std::function<bool(const staging::Chunk&)>& pred) {
    rebase_dependents(var, version);
    return store_.drop_pieces(var, version, pred,
                              staging::DropReason::kResilver);
  }

  /// Drop all retained versions of `var` up to and including `watermark`.
  /// Returns the number of versions dropped.
  std::size_t drop_upto(const std::string& var, staging::Version watermark);
  /// Drop versions newer than `version` (staging rollback support). No
  /// rebase is needed: a surviving delta's base is always older than the
  /// delta itself, hence also a survivor.
  std::size_t drop_above(staging::Version version) {
    return store_.drop_versions_above(version);
  }
  /// Tenant-scoped rollback: drop versions newer than `version`, but only
  /// of variables matching `var_pred` (a tenant-namespace predicate), so one
  /// tenant's rollback never truncates another tenant's retained history.
  std::size_t drop_above(
      staging::Version version,
      const std::function<bool(const std::string&)>& var_pred) {
    return store_.drop_versions_above(version, var_pred);
  }

  [[nodiscard]] std::uint64_t nominal_bytes() const {
    return store_.nominal_bytes();
  }
  /// Retained nominal bytes attributable to one tenant's variables.
  [[nodiscard]] std::uint64_t nominal_bytes(net::TenantId tenant) const {
    return store_.nominal_bytes(tenant);
  }
  [[nodiscard]] std::uint64_t physical_bytes() const {
    return store_.physical_bytes();
  }

 private:
  /// Decode one stored piece to its raw bytes (identity when not encoded).
  [[nodiscard]] std::vector<std::uint8_t> decode_piece(
      const staging::Chunk& stored) const;
  /// Raw bytes of the base piece (var, base_version, region), or empty.
  [[nodiscard]] std::vector<std::uint8_t> base_bytes(
      const std::string& var, staging::Version base_version,
      const Box& region) const;
  /// Re-encode one stored delta piece as a full block, in place.
  void rebase_piece_full(const std::string& var, staging::Version version,
                         const staging::Chunk& piece);
  /// Re-encode every delta whose base is (var, version) as a full block.
  void rebase_dependents(const std::string& var, staging::Version version);

  staging::ObjectStore store_;
  codec::Scheme scheme_ = codec::Scheme::kNone;
  CodecStats codec_stats_;
};

}  // namespace dstage::wlog
