// Payload retention for replay (the Data Logging Component's storage half).
// The data log is one of the two holders of its server's version store
// (staging::ObjectStore): while the coupling window keeps only the latest
// versions, the log retains every logged version that a rolled-back
// consumer might re-read, until the garbage collector proves it
// unreachable. Every operation here acts on the log's own pieces.
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
#include <memory>
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
  /// A log with a store of its own (standalone use): every (var, version)
  /// it releases is emitted on `track` as obs::Kind::kLogDrop (detail=var,
  /// a=version, b=staging::DropReason).
  explicit DataLog(obs::Track track = {})
      : own_(std::make_unique<staging::ObjectStore>(1, track)),
        store_(own_.get()) {}
  /// The log holder of `store`, a staging server's one version store,
  /// which must outlive the log. Its releases go out on the store's track.
  explicit DataLog(staging::ObjectStore& store) : store_(&store) {}

  /// Arm the payload codec; kNone (the default) retains raw buffers and
  /// leaves every path byte-identical to the pre-codec log.
  void set_codec(codec::Scheme scheme) { scheme_ = scheme; }
  [[nodiscard]] codec::Scheme codec_scheme() const { return scheme_; }
  [[nodiscard]] const CodecStats& codec_stats() const { return codec_stats_; }

  /// Retain a logged payload. With the codec off the piece keeps the
  /// chunk's buffer — the window's piece of the same put, held twice and
  /// stored once; with a scheme armed the log stores an encoded copy (an
  /// already-encoded chunk — spill fault-in, resilver — is re-ingested
  /// as-is).
  void add(staging::Chunk chunk);

  /// Decoded (raw-byte) pieces of (var, version) clipped to `region` —
  /// every read path (replay, slow consumer, recovery) sees exactly the
  /// bytes that were retained, whatever the stored representation.
  [[nodiscard]] std::vector<staging::Chunk> get(const std::string& var,
                                                staging::Version version,
                                                const Box& region) const;
  [[nodiscard]] bool covers(const std::string& var, staging::Version version,
                            const Box& region) const {
    return store_->covers(var, version, region, kLog);
  }
  /// The raw-byte form of a stored piece: `piece` itself unless it is
  /// encoded, when its payload is decoded (reads, integrity audits).
  [[nodiscard]] staging::Chunk decoded(staging::Chunk piece) const;

  /// Retained versions of `var`, ascending.
  [[nodiscard]] std::vector<staging::Version> versions_of(
      const std::string& var) const;
  [[nodiscard]] std::vector<std::string> variables() const;

  /// All retained pieces of one version, unclipped and in their stored
  /// representation (index walks; not for export — see export_chunks).
  [[nodiscard]] std::vector<staging::Chunk> chunks_of(
      const std::string& var, staging::Version version) const {
    return store_->chunks_of(var, version, kLog);
  }
  /// Self-contained pieces of one version for spill/resilver export:
  /// delta blocks are rebased to full blocks first (in place), so the
  /// receiver never needs this log's base versions to decode.
  [[nodiscard]] std::vector<staging::Chunk> export_chunks(
      const std::string& var, staging::Version version);
  /// True when the log retains any piece of (var, version).
  [[nodiscard]] bool has(const std::string& var,
                         staging::Version version) const {
    return store_->holds(var, version, kLog);
  }
  /// Memory-governor eviction: drop one retained version because its
  /// payload now lives on the PFS spill gateway. Reported to the oracle's
  /// drop probe as kSpill (durability is preserved, just relocated).
  bool drop_spilled(const std::string& var, staging::Version version) {
    rebase_dependents(var, version);
    return store_->drop_version(var, version, staging::DropReason::kSpill,
                                kLog);
  }

  /// Elastic rebalance: drop the retained pieces of (var, version) that
  /// the cell's new owner now logs. Reported as kResilver only when the
  /// version's last piece leaves (durability moved, not lost).
  std::size_t drop_resilvered(
      const std::string& var, staging::Version version,
      const std::function<bool(const staging::Chunk&)>& pred) {
    rebase_dependents(var, version);
    return store_->drop_pieces(var, version, pred,
                               staging::DropReason::kResilver, kLog);
  }

  /// Drop all retained versions of `var` up to and including `watermark`.
  /// Returns the number of versions dropped.
  std::size_t drop_upto(const std::string& var, staging::Version watermark);
  /// Drop versions newer than `version` (staging rollback support). No
  /// rebase is needed: a surviving delta's base is always older than the
  /// delta itself, hence also a survivor.
  std::size_t drop_above(staging::Version version) {
    return store_->drop_versions_above(version, {}, kLog);
  }

  [[nodiscard]] std::uint64_t nominal_bytes() const {
    return store_->nominal_bytes(kLog);
  }

 private:
  static constexpr staging::Holder kLog = staging::Holder::kLog;

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

  std::unique_ptr<staging::ObjectStore> own_;  // standalone logs only
  staging::ObjectStore* store_;
  codec::Scheme scheme_ = codec::Scheme::kNone;
  CodecStats codec_stats_;
};

}  // namespace dstage::wlog
