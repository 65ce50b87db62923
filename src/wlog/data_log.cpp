#include "wlog/data_log.hpp"

#include <memory>
#include <span>
#include <stdexcept>

namespace dstage::wlog {

namespace {

/// Nominal-scale stored size of an encoded block: the encoded payload /
/// raw ratio applied to the chunk's nominal size (header overhead is part
/// of the per-object descriptor cost, not the payload). Never 0, so a
/// stored chunk always has a footprint.
std::uint64_t scaled_stored_bytes(std::uint64_t nominal,
                                  std::uint64_t payload_size,
                                  std::uint64_t raw_size) {
  if (raw_size == 0 || payload_size >= raw_size) return nominal;
  const unsigned __int128 scaled =
      static_cast<unsigned __int128>(nominal) * payload_size / raw_size;
  const auto stored = static_cast<std::uint64_t>(scaled);
  return stored == 0 ? 1 : stored;
}

std::span<const std::uint8_t> bytes_of(const staging::Chunk& c) {
  return c.data ? std::span<const std::uint8_t>{*c.data}
                : std::span<const std::uint8_t>{};
}

}  // namespace

std::vector<std::uint8_t> DataLog::base_bytes(
    const std::string& var, staging::Version base_version,
    const Box& region) const {
  for (const staging::Chunk& c : chunks_of(var, base_version)) {
    if (c.region == region) return decode_piece(c);
  }
  return {};
}

std::vector<std::uint8_t> DataLog::decode_piece(
    const staging::Chunk& stored) const {
  if (!stored.data) return {};
  if (!codec::is_encoded(*stored.data)) {
    return *stored.data;  // raw retention (codec off, or pre-codec chunk)
  }
  const auto info = codec::inspect(*stored.data);
  std::vector<std::uint8_t> base;
  if (info && info->has_base) {
    base = base_bytes(stored.var, info->base_version, stored.region);
  }
  codec::DecodeResult result = codec::decode(*stored.data, base);
  if (!result.ok()) {
    // Never serve garbage: a log that cannot reproduce its retained bytes
    // is a correctness failure, not a degraded read.
    throw std::runtime_error(
        std::string("wlog codec: decode failed (") +
        codec::codec_error_name(*result.error) + ") for " + stored.var +
        " v" + std::to_string(stored.version));
  }
  return std::move(result.raw);
}

void DataLog::add(staging::Chunk chunk) {
  if (scheme_ == codec::Scheme::kNone || !chunk.data ||
      chunk.data->empty() || chunk.nominal_bytes == 0) {
    store_->put(std::move(chunk), kLog);
    return;
  }
  if (codec::is_encoded(*chunk.data)) {
    // Already-encoded block arriving from spill fault-in or resilver:
    // re-ingest as-is. Exported blocks are self-contained (full), so no
    // base is needed; recover the stored size if the sender dropped it.
    if (chunk.stored_bytes == 0) {
      if (const auto info = codec::inspect(*chunk.data)) {
        chunk.stored_bytes = scaled_stored_bytes(
            chunk.nominal_bytes, info->payload_size, info->raw_size);
      }
    }
    store_->put(std::move(chunk), kLog);
    return;
  }

  // Delta base: the newest older retained version holding this exact
  // region. Deltas stay single-level — if that piece is itself a delta,
  // chain through to its (full) base instead.
  std::vector<std::uint8_t> base;
  staging::Version base_version = 0;
  if (scheme_ == codec::Scheme::kDelta ||
      scheme_ == codec::Scheme::kDeltaLz) {
    const auto versions = versions_of(chunk.var);
    for (auto it = versions.rbegin(); it != versions.rend(); ++it) {
      if (*it >= chunk.version) continue;
      staging::Version candidate = *it;
      for (const staging::Chunk& prior : chunks_of(chunk.var, *it)) {
        if (!(prior.region == chunk.region)) continue;
        if (prior.data && codec::is_encoded(*prior.data)) {
          if (const auto info = codec::inspect(*prior.data);
              info && info->has_base) {
            candidate = info->base_version;
          }
        }
        base = base_bytes(chunk.var, candidate, chunk.region);
        base_version = candidate;
        break;
      }
      if (!base.empty()) break;
    }
  }

  std::vector<std::uint8_t> block =
      codec::encode(bytes_of(chunk), scheme_, base, base_version);
  const auto info = codec::inspect(block);
  const std::uint64_t stored = scaled_stored_bytes(
      chunk.nominal_bytes, info ? info->payload_size : chunk.data->size(),
      chunk.data->size());
  codec_stats_.raw_bytes += chunk.nominal_bytes;
  codec_stats_.stored_bytes += stored;
  ++codec_stats_.blocks_encoded;
  if (info && info->has_base) ++codec_stats_.delta_blocks;
  chunk.data = std::make_shared<std::vector<std::uint8_t>>(std::move(block));
  chunk.stored_bytes = stored;
  store_->put(std::move(chunk), kLog);
}

std::vector<staging::Chunk> DataLog::get(const std::string& var,
                                         staging::Version version,
                                         const Box& region) const {
  std::vector<staging::Chunk> pieces = store_->get(var, version, region, kLog);
  // The store's get shares the stored buffer unsliced and keeps the source
  // region, so a piece decodes exactly like the retained chunk; the
  // clipped nominal size is already raw-scale.
  for (staging::Chunk& piece : pieces) piece = decoded(std::move(piece));
  return pieces;
}

staging::Chunk DataLog::decoded(staging::Chunk piece) const {
  if (!piece.data || !codec::is_encoded(*piece.data)) return piece;
  piece.data =
      std::make_shared<std::vector<std::uint8_t>>(decode_piece(piece));
  piece.stored_bytes = 0;
  return piece;
}

void DataLog::rebase_piece_full(const std::string& var,
                                staging::Version version,
                                const staging::Chunk& piece) {
  std::vector<std::uint8_t> raw = decode_piece(piece);
  std::vector<std::uint8_t> full = codec::encode(raw, scheme_);
  const auto full_info = codec::inspect(full);
  const std::uint64_t stored = scaled_stored_bytes(
      piece.nominal_bytes, full_info ? full_info->payload_size : raw.size(),
      raw.size());
  store_->rewrite_payload(
      var, version, piece.region,
      std::make_shared<std::vector<std::uint8_t>>(std::move(full)), stored,
      kLog);
  ++codec_stats_.rebases;
}

std::vector<staging::Chunk> DataLog::export_chunks(const std::string& var,
                                                   staging::Version version) {
  if (scheme_ != codec::Scheme::kNone) {
    for (const staging::Chunk& piece : chunks_of(var, version)) {
      if (!piece.data || !codec::is_encoded(*piece.data)) continue;
      const auto info = codec::inspect(*piece.data);
      if (!info || !info->has_base) continue;
      rebase_piece_full(var, version, piece);
    }
  }
  return chunks_of(var, version);
}

void DataLog::rebase_dependents(const std::string& var,
                                staging::Version version) {
  if (scheme_ == codec::Scheme::kNone) return;
  for (staging::Version w : versions_of(var)) {
    if (w == version) continue;
    for (const staging::Chunk& piece : chunks_of(var, w)) {
      if (!piece.data || !codec::is_encoded(*piece.data)) continue;
      const auto info = codec::inspect(*piece.data);
      if (!info || !info->has_base || info->base_version != version) continue;
      rebase_piece_full(var, w, piece);
    }
  }
}

std::vector<staging::Version> DataLog::versions_of(
    const std::string& var) const {
  return store_->versions_of(var, kLog);
}

std::vector<std::string> DataLog::variables() const {
  return store_->variables(kLog);
}

std::size_t DataLog::drop_upto(const std::string& var,
                               staging::Version watermark) {
  // Survivor deltas whose base is about to be reclaimed are rebased to
  // full blocks first (while the base is still present to decode against);
  // doomed deltas are simply dropped and never need their base again.
  if (scheme_ != codec::Scheme::kNone) {
    for (staging::Version w : versions_of(var)) {
      if (w <= watermark) continue;
      for (const staging::Chunk& piece : chunks_of(var, w)) {
        if (!piece.data || !codec::is_encoded(*piece.data)) continue;
        const auto info = codec::inspect(*piece.data);
        if (!info || !info->has_base || info->base_version > watermark)
          continue;
        rebase_piece_full(var, w, piece);
      }
    }
  }
  std::size_t dropped = 0;
  for (staging::Version v : versions_of(var)) {
    if (v <= watermark &&
        store_->drop_version(var, v, staging::DropReason::kExplicit, kLog))
      ++dropped;
  }
  return dropped;
}

}  // namespace dstage::wlog
