#include "staging/object_store.hpp"

#include <algorithm>
#include <iterator>
#include <stdexcept>
#include <utility>

#include "staging/tenant.hpp"

namespace dstage::staging {

namespace {

constexpr std::uint8_t bits(Holder holders) {
  return static_cast<std::uint8_t>(holders);
}

constexpr std::uint8_t kWindowBit = bits(Holder::kWindow);

constexpr auto kEveryPiece = [](const Chunk&) { return true; };

}  // namespace

bool ObjectStore::kept(const std::vector<Piece>& pieces, Holder holders) {
  return std::ranges::any_of(pieces, [&](const Piece& p) {
    return (p.holders & bits(holders)) != 0;
  });
}

ObjectStore::ObjectStore(int version_window, obs::Track track)
    : version_window_(version_window), track_(track) {
  if (version_window < 1)
    throw std::invalid_argument("version window must be >= 1");
}

const std::vector<ObjectStore::Piece>* ObjectStore::find(
    const std::string& var, Version version) const {
  auto vit = store_.find(var);
  if (vit == store_.end()) return nullptr;
  auto it = vit->second.find(version);
  return it == vit->second.end() ? nullptr : &it->second;
}

void ObjectStore::charge(const Chunk& c, std::uint8_t before,
                         std::uint8_t after) {
  // Footprint accounting charges the *stored* representation: for
  // codec-encoded log chunks that is the (smaller) encoded size, which is
  // exactly how the memory governor and the spill gateway see the codec's
  // savings. Raw chunks have stored_bytes == 0 and charge nominal as ever.
  const auto bytes = static_cast<std::int64_t>(c.accounted_bytes());
  Usage& tenant = tenant_usage_[tenant_of(c.var)];
  // Holder sets window, log and either: a piece counts in each set that
  // one of its holders belongs to.
  for (std::uint8_t set = 1; set <= bits(Holder::kBoth); ++set) {
    const int delta = int{(after & set) != 0} - int{(before & set) != 0};
    usage_[set - 1].add(delta * bytes);
    tenant[set - 1].add(delta * bytes);
  }
}

std::size_t ObjectStore::release(
    const std::string& var, Version version, std::vector<Piece>& pieces,
    std::uint8_t holders, DropReason reason,
    const std::function<bool(const Chunk&)>& pred) {
  const bool window = kept(pieces, Holder::kWindow);
  const bool log = kept(pieces, Holder::kLog);
  std::size_t released = 0;
  for (Piece& p : pieces) {
    if ((p.holders & holders) == 0 || !pred(p.chunk)) continue;
    const auto rest = static_cast<std::uint8_t>(p.holders & ~holders);
    charge(p.chunk, p.holders, rest);
    p.holders = rest;
    ++released;
  }
  std::erase_if(pieces, [](const Piece& p) { return p.holders == 0; });
  const auto emit = [&](obs::Kind kind) {
    track_.emit(kind, var, static_cast<std::int64_t>(version),
                static_cast<std::int64_t>(reason));
  };
  if (window && !kept(pieces, Holder::kWindow)) emit(obs::Kind::kStoreDrop);
  if (log && !kept(pieces, Holder::kLog)) emit(obs::Kind::kLogDrop);
  return released;
}

std::uint64_t ObjectStore::nominal_bytes(net::TenantId tenant,
                                         Holder holders) const {
  auto it = tenant_usage_.find(tenant);
  if (it == tenant_usage_.end()) return 0;
  return static_cast<std::uint64_t>(it->second[slot(holders)].current());
}

std::uint64_t ObjectStore::peak_nominal_bytes(net::TenantId tenant) const {
  auto it = tenant_usage_.find(tenant);
  if (it == tenant_usage_.end()) return 0;
  return static_cast<std::uint64_t>(it->second[slot(Holder::kWindow)].peak());
}

std::vector<net::TenantId> ObjectStore::tenants() const {
  std::vector<net::TenantId> out;
  out.reserve(tenant_usage_.size());
  for (const auto& [tenant, usage] : tenant_usage_) {
    if (usage[slot(Holder::kWindow)].peak() > 0) out.push_back(tenant);
  }
  return out;
}

void ObjectStore::put(Chunk chunk, Holder holder) {
  const std::uint8_t h = bits(holder);
  const auto vit = store_.try_emplace(chunk.var).first;
  std::vector<Piece>& pieces = vit->second[chunk.version];
  // Only a version new to the window can push an older one out.
  const bool rotates =
      holder == Holder::kWindow && !kept(pieces, Holder::kWindow);
  // A re-put of a region the holder already has (client retry, or an
  // individually restarted producer) replaces its piece, in its place,
  // rather than duplicating it.
  auto at = std::ranges::find_if(pieces, [&](const Piece& p) {
    return (p.holders & h) != 0 && p.chunk.region == chunk.region;
  });
  if (at != pieces.end()) {
    const auto rest = static_cast<std::uint8_t>(at->holders & ~h);
    charge(at->chunk, at->holders, rest);
    at->holders = rest;
    at = rest == 0 ? pieces.erase(at) : std::next(at);
  }
  // The other holder's piece in this very buffer (a raw logged put) is
  // this piece: it gains a holder, and its bytes are not charged again.
  const auto same = std::ranges::find_if(pieces, [&](const Piece& p) {
    return chunk.data && p.chunk.data == chunk.data &&
           p.chunk.region == chunk.region;
  });
  if (same != pieces.end()) {
    charge(same->chunk, same->holders, same->holders | h);
    same->holders |= h;
  } else {
    charge(chunk, 0, h);
    pieces.insert(at, Piece{std::move(chunk), h});
  }
  if (rotates) rotate(vit->first, vit->second);
}

void ObjectStore::rotate(const std::string& var, Versions& versions) {
  // The window keeps its newest version_window_ versions of `var`.
  if (versions.size() <= static_cast<std::size_t>(version_window_)) return;
  int newer = 0;
  for (auto it = versions.end(); it != versions.begin();) {
    --it;
    if (!kept(it->second, Holder::kWindow) || ++newer <= version_window_)
      continue;
    release(var, it->first, it->second, kWindowBit, DropReason::kRotation,
            kEveryPiece);
    if (it->second.empty()) it = versions.erase(it);
  }
}

std::vector<Chunk> ObjectStore::get(const std::string& var, Version version,
                                    const Box& region, Holder holders) const {
  std::vector<Chunk> out;
  const std::vector<Piece>* pieces = find(var, version);
  if (pieces == nullptr) return out;
  std::vector<Box> served;
  for (const Piece& p : *pieces) {
    if ((p.holders & bits(holders)) == 0) continue;
    const Chunk& c = p.chunk;
    const Box overlap = c.region.intersection(region);
    if (overlap.empty()) continue;
    // After an elastic rebalance a version may be held in redundant
    // overlapping copies (a straddler delivered whole to several
    // successors, or a replayed put re-shaped by a newer epoch's
    // placement). Serve each point of the request once: a piece's nominal
    // size covers only the volume no earlier piece already served, and a
    // fully redundant copy is omitted outright.
    const std::uint64_t fresh = uncovered_volume(overlap, served);
    if (fresh == 0) continue;
    served.push_back(overlap);
    // Return the piece clipped to the overlap; bytes stay shared, and the
    // clipped nominal size is proportional to the clipped volume.
    Chunk piece = c;
    const double frac = static_cast<double>(fresh) /
                        static_cast<double>(c.region.volume());
    piece.nominal_bytes = static_cast<std::uint64_t>(
        static_cast<double>(c.nominal_bytes) * frac);
    // The content key stays that of the *source* chunk: consumers verify
    // against the source region carried in `region`.
    out.push_back(std::move(piece));
  }
  return out;
}

bool ObjectStore::covers(const std::string& var, Version version,
                         const Box& region, Holder holders) const {
  if (region.empty()) return true;
  const std::vector<Piece>* pieces = find(var, version);
  if (pieces == nullptr) return false;
  // Fast path: one stored chunk contains the probe outright — the common
  // case when gets are fragment-aligned with the writes that fed them.
  std::vector<Box> cover;
  cover.reserve(pieces->size());
  for (const Piece& p : *pieces) {
    if ((p.holders & bits(holders)) == 0) continue;
    if (p.chunk.region.contains(region)) return true;
    cover.push_back(p.chunk.region);
  }
  // Exact even when stored chunks overlap (e.g. writes from overlapping
  // producer decompositions).
  return boxes_cover(region, cover);
}

std::optional<Version> ObjectStore::latest(const std::string& var) const {
  auto vit = store_.find(var);
  if (vit == store_.end()) return std::nullopt;
  for (auto it = vit->second.rbegin(); it != vit->second.rend(); ++it) {
    if (kept(it->second, Holder::kWindow)) return it->first;
  }
  return std::nullopt;
}

bool ObjectStore::holds(const std::string& var, Version version,
                        Holder holders) const {
  const std::vector<Piece>* pieces = find(var, version);
  return pieces != nullptr && kept(*pieces, holders);
}

std::vector<Version> ObjectStore::versions_of(const std::string& var,
                                              Holder holders) const {
  std::vector<Version> out;
  auto vit = store_.find(var);
  if (vit == store_.end()) return out;
  for (const auto& [version, pieces] : vit->second) {
    if (kept(pieces, holders)) out.push_back(version);
  }
  return out;
}

std::vector<std::string> ObjectStore::variables(Holder holders) const {
  std::vector<std::string> out;
  for (const auto& [var, versions] : store_) {
    for (const auto& [version, pieces] : versions) {
      if (!kept(pieces, holders)) continue;
      out.push_back(var);
      break;
    }
  }
  return out;
}

std::size_t ObjectStore::drop_versions_above(
    Version version, const std::function<bool(const std::string&)>& var_pred,
    Holder holders) {
  std::size_t dropped = 0;
  for (auto& [var, versions] : store_) {
    if (var_pred && !var_pred(var)) continue;
    for (auto it = versions.upper_bound(version); it != versions.end();) {
      dropped += release(var, it->first, it->second, bits(holders),
                         DropReason::kRollback, kEveryPiece) > 0;
      it = it->second.empty() ? versions.erase(it) : std::next(it);
    }
  }
  return dropped;
}

bool ObjectStore::drop_version(const std::string& var, Version version,
                               DropReason reason, Holder holders) {
  return drop_pieces(var, version, kEveryPiece, reason, holders) > 0;
}

std::size_t ObjectStore::drop_pieces(
    const std::string& var, Version version,
    const std::function<bool(const Chunk&)>& pred, DropReason reason,
    Holder holders) {
  auto vit = store_.find(var);
  if (vit == store_.end()) return 0;
  auto it = vit->second.find(version);
  if (it == vit->second.end()) return 0;
  const std::size_t dropped =
      release(var, version, it->second, bits(holders), reason, pred);
  if (it->second.empty()) vit->second.erase(it);
  return dropped;
}

bool ObjectStore::rewrite_payload(
    const std::string& var, Version version, const Box& region,
    std::shared_ptr<const std::vector<std::uint8_t>> data,
    std::uint64_t stored_bytes, Holder holder) {
  // The store is not const here, so neither are the pieces find() returns.
  auto* pieces = const_cast<std::vector<Piece>*>(find(var, version));
  if (pieces == nullptr) return false;
  for (Piece& p : *pieces) {
    if ((p.holders & bits(holder)) == 0 || !(p.chunk.region == region))
      continue;
    // Representation change only (codec rebase): identity, nominal size and
    // content key are untouched, so no drop is emitted — the set of held
    // (var, version) pairs does not change.
    charge(p.chunk, p.holders, 0);
    p.chunk.data = std::move(data);
    p.chunk.stored_bytes = stored_bytes;
    charge(p.chunk, 0, p.holders);
    return true;
  }
  return false;
}

std::vector<Chunk> ObjectStore::chunks_of(const std::string& var,
                                          Version version,
                                          Holder holders) const {
  std::vector<Chunk> out;
  const std::vector<Piece>* pieces = find(var, version);
  if (pieces == nullptr) return out;
  for (const Piece& p : *pieces) {
    if ((p.holders & bits(holders)) != 0) out.push_back(p.chunk);
  }
  return out;
}

std::size_t ObjectStore::object_count() const {
  std::size_t n = 0;
  for (const auto& [var, versions] : store_) {
    for (const auto& [version, pieces] : versions) {
      for (const Piece& p : pieces) n += (p.holders & kWindowBit) != 0;
    }
  }
  return n;
}

}  // namespace dstage::staging
