// Payload codec for log-retained chunks: LZ-style block compression plus
// XOR delta encoding against the previous version of the same region key.
// The data log applies it at retain time; every read path (replay, slow
// consumer, spill fault-in, resilver) decodes transparently.
//
// Encoded blocks are self-describing: a fixed header carries the scheme,
// the raw size, the delta base (when any) and an FNV-1a checksum of the
// raw bytes, so a block can travel over spill/resilver traffic and be
// re-ingested — or rejected loudly — without side state. Decoding never
// returns garbage: any structural or checksum mismatch surfaces as a typed
// CodecError.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace dstage::wlog::codec {

/// Compression scheme applied to a retained payload block.
enum class Scheme : std::uint8_t {
  kNone = 0,     // store raw (codec disabled)
  kLz = 1,       // LZ block compression of the full payload
  kDelta = 2,    // XOR delta vs. the previous version + zero-run RLE
  kDeltaLz = 3,  // XOR delta vs. the previous version, then LZ
};

/// Parse a scheme name ("none", "lz", "delta", "delta_lz"); empty optional
/// on an unknown name.
[[nodiscard]] std::optional<Scheme> parse_scheme(const std::string& name);
[[nodiscard]] const char* scheme_name(Scheme s);

/// Typed decode failure — the codec never hands back unverified bytes.
enum class CodecError {
  kNotEncoded,      // buffer does not start with an encoded-block header
  kBadHeader,       // magic/version/scheme field malformed
  kTruncated,       // payload shorter than the stream demands
  kCorrupt,         // structurally invalid compressed stream
  kChecksum,        // decoded bytes fail the header's raw checksum
  kMissingBase,     // delta block, but the caller supplied no/wrong base
};

[[nodiscard]] const char* codec_error_name(CodecError e);

struct DecodeResult {
  std::vector<std::uint8_t> raw;  // valid only when ok()
  std::optional<CodecError> error;
  [[nodiscard]] bool ok() const { return !error.has_value(); }
};

/// Fixed-size header at the front of every encoded block.
struct BlockInfo {
  Scheme scheme = Scheme::kNone;
  bool has_base = false;          // delta block: needs base_version's raw bytes
  bool stored_raw = false;        // encoder fell back to a verbatim copy
  std::uint64_t raw_size = 0;     // size of the decoded payload
  std::uint32_t base_version = 0; // delta base (same var, same region)
  std::uint64_t raw_checksum = 0; // FNV-1a over the raw bytes
  std::uint64_t payload_size = 0; // encoded bytes after the header
};

inline constexpr std::size_t kHeaderSize = 32;

/// True when `data` begins with a plausible encoded-block header.
[[nodiscard]] bool is_encoded(std::span<const std::uint8_t> data);

/// Parse the header of an encoded block. kNotEncoded/kBadHeader on failure.
[[nodiscard]] std::optional<BlockInfo> inspect(
    std::span<const std::uint8_t> data);

/// Encode `raw` under `scheme`. For the delta schemes, `base` is the raw
/// payload of `base_version` (same var, same region) — pass empty to force
/// a full (non-delta) block. The encoder falls back to a verbatim copy when
/// compression would expand, so the result never exceeds raw size by more
/// than the header. Returns the full block (header + payload).
[[nodiscard]] std::vector<std::uint8_t> encode(
    std::span<const std::uint8_t> raw, Scheme scheme,
    std::span<const std::uint8_t> base = {}, std::uint32_t base_version = 0);

/// Decode a block produced by encode(). For a delta block, `base` must be
/// the raw payload of header.base_version; non-delta blocks ignore it.
[[nodiscard]] DecodeResult decode(std::span<const std::uint8_t> data,
                                  std::span<const std::uint8_t> base = {});

}  // namespace dstage::wlog::codec
