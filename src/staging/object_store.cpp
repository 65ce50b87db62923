#include "staging/object_store.hpp"

#include <algorithm>
#include <stdexcept>

#include "staging/tenant.hpp"

namespace dstage::staging {

ObjectStore::ObjectStore(int version_window, obs::Track track,
                         obs::Kind drop_kind)
    : version_window_(version_window), drop_kind_(drop_kind), track_(track) {
  if (version_window < 1)
    throw std::invalid_argument("version window must be >= 1");
}

void ObjectStore::pair_with(ObjectStore& twin) {
  if (twin_ != nullptr || twin.twin_ != nullptr || &twin == this ||
      !store_.empty() || !twin.store_.empty())
    throw std::logic_error("ObjectStore::pair_with: stores must be empty "
                           "and unpaired");
  twin_ = &twin;
  twin.twin_ = this;
}

const Chunk* ObjectStore::holding(const Chunk& c) const {
  auto vit = store_.find(c.var);
  if (vit == store_.end()) return nullptr;
  auto it = vit->second.find(c.version);
  if (it == vit->second.end()) return nullptr;
  for (const Chunk& held : it->second) {
    if (held.data == c.data) return &held;
  }
  return nullptr;
}

void ObjectStore::account(const Chunk& c, int sign) {
  // Footprint accounting charges the *stored* representation: for
  // codec-encoded log chunks that is the (smaller) encoded size, which is
  // exactly how the memory governor and the spill gateway see the codec's
  // savings. Raw chunks have stored_bytes == 0 and charge nominal as ever.
  const std::uint64_t stored = c.accounted_bytes();
  const net::TenantId tenant = tenant_of(c.var);
  TenantUsage& usage = tenant_usage_[tenant];
  if (sign > 0) {
    nominal_bytes_ += stored;
    physical_bytes_ += c.physical_bytes();
    watermark_.add(static_cast<std::int64_t>(stored));
    usage.nominal += stored;
    if (usage.nominal > usage.peak) usage.peak = usage.nominal;
  } else {
    nominal_bytes_ -= stored;
    physical_bytes_ -= c.physical_bytes();
    watermark_.add(-static_cast<std::int64_t>(stored));
    usage.nominal -= stored;
  }
  // A buffer the twin holds too is one allocation: its bytes enter the
  // shared term when the second holder takes it and leave it when either
  // lets go. Both sides charge min(stored sizes), so entry and exit match
  // whichever holder moves first. A buffer with a single owner (`c`) is
  // not the twin's, so its lookup would miss: skip it.
  if (twin_ == nullptr || !c.data || c.data.use_count() < 2) return;
  const Chunk* held = twin_->holding(c);
  if (held == nullptr) return;
  const std::uint64_t both = std::min(stored, held->accounted_bytes());
  TenantUsage& twin_usage = twin_->tenant_usage_[tenant];
  if (sign > 0) {
    usage.shared += both;
    twin_usage.shared += both;
  } else {
    usage.shared -= both;
    twin_usage.shared -= both;
  }
}

std::uint64_t ObjectStore::shared_bytes() const {
  std::uint64_t total = 0;
  for (const auto& [tenant, usage] : tenant_usage_) total += usage.shared;
  return total;
}

std::uint64_t ObjectStore::shared_bytes(net::TenantId tenant) const {
  auto it = tenant_usage_.find(tenant);
  return it == tenant_usage_.end() ? 0 : it->second.shared;
}

std::uint64_t ObjectStore::nominal_bytes(net::TenantId tenant) const {
  auto it = tenant_usage_.find(tenant);
  return it == tenant_usage_.end() ? 0 : it->second.nominal;
}

std::uint64_t ObjectStore::peak_nominal_bytes(net::TenantId tenant) const {
  auto it = tenant_usage_.find(tenant);
  return it == tenant_usage_.end() ? 0 : it->second.peak;
}

std::vector<net::TenantId> ObjectStore::tenants() const {
  std::vector<net::TenantId> out;
  out.reserve(tenant_usage_.size());
  for (const auto& [tenant, usage] : tenant_usage_) {
    if (usage.peak > 0) out.push_back(tenant);
  }
  return out;
}

void ObjectStore::put(Chunk chunk) {
  auto& versions = store_[chunk.var];
  auto& chunks = versions[chunk.version];
  // A re-put of the same region (client retry, or an individually restarted
  // producer) overwrites in place rather than duplicating.
  for (Chunk& existing : chunks) {
    if (existing.region == chunk.region) {
      account(existing, -1);
      account(chunk, +1);
      existing = std::move(chunk);
      return;
    }
  }
  account(chunk, +1);
  const std::string var = chunk.var;
  chunks.push_back(std::move(chunk));
  // Rotate versions that fell out of the retention window.
  while (static_cast<int>(versions.size()) > version_window_) {
    auto oldest = versions.begin();
    // Never rotate out a version newer than the one just written.
    if (oldest->first >= versions.rbegin()->first) break;
    for (const Chunk& c : oldest->second) account(c, -1);
    emit_drop(var, oldest->first, DropReason::kRotation);
    versions.erase(oldest);
  }
}

std::vector<Chunk> ObjectStore::get(const std::string& var, Version version,
                                    const Box& region) const {
  std::vector<Chunk> out;
  auto vit = store_.find(var);
  if (vit == store_.end()) return out;
  auto it = vit->second.find(version);
  if (it == vit->second.end()) return out;
  std::vector<Box> served;
  for (const Chunk& c : it->second) {
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
                         const Box& region) const {
  if (region.empty()) return true;
  auto vit = store_.find(var);
  if (vit == store_.end()) return false;
  auto it = vit->second.find(version);
  if (it == vit->second.end()) return false;
  // Fast path: one stored chunk contains the probe outright — the common
  // case when gets are fragment-aligned with the writes that fed them.
  for (const Chunk& c : it->second) {
    if (c.region.contains(region)) return true;
  }
  std::vector<Box> cover;
  cover.reserve(it->second.size());
  for (const Chunk& c : it->second) cover.push_back(c.region);
  // Exact even when stored chunks overlap (e.g. writes from overlapping
  // producer decompositions).
  return boxes_cover(region, cover);
}

std::optional<Version> ObjectStore::latest(const std::string& var) const {
  auto vit = store_.find(var);
  if (vit == store_.end() || vit->second.empty()) return std::nullopt;
  return vit->second.rbegin()->first;
}

std::vector<Version> ObjectStore::versions_of(const std::string& var) const {
  std::vector<Version> out;
  auto vit = store_.find(var);
  if (vit == store_.end()) return out;
  out.reserve(vit->second.size());
  for (const auto& [version, chunks] : vit->second) out.push_back(version);
  return out;
}

std::vector<std::string> ObjectStore::variables() const {
  std::vector<std::string> out;
  out.reserve(store_.size());
  for (const auto& [var, versions] : store_) {
    if (!versions.empty()) out.push_back(var);
  }
  return out;
}

std::size_t ObjectStore::drop_versions_above(Version version) {
  return drop_versions_above(version,
                             [](const std::string&) { return true; });
}

std::size_t ObjectStore::drop_versions_above(
    Version version, const std::function<bool(const std::string&)>& var_pred) {
  std::size_t dropped = 0;
  for (auto& [var, versions] : store_) {
    if (!var_pred(var)) continue;
    for (auto it = versions.upper_bound(version); it != versions.end();) {
      for (const Chunk& c : it->second) account(c, -1);
      emit_drop(var, it->first, DropReason::kRollback);
      it = versions.erase(it);
      ++dropped;
    }
  }
  return dropped;
}

bool ObjectStore::drop_version(const std::string& var, Version version,
                               DropReason reason) {
  auto vit = store_.find(var);
  if (vit == store_.end()) return false;
  auto it = vit->second.find(version);
  if (it == vit->second.end()) return false;
  for (const Chunk& c : it->second) account(c, -1);
  emit_drop(var, version, reason);
  vit->second.erase(it);
  return true;
}

std::size_t ObjectStore::drop_pieces(
    const std::string& var, Version version,
    const std::function<bool(const Chunk&)>& pred, DropReason reason) {
  auto vit = store_.find(var);
  if (vit == store_.end()) return 0;
  auto it = vit->second.find(version);
  if (it == vit->second.end()) return 0;
  std::size_t dropped = 0;
  std::erase_if(it->second, [&](const Chunk& c) {
    if (!pred(c)) return false;
    account(c, -1);
    ++dropped;
    return true;
  });
  if (it->second.empty()) {
    emit_drop(var, version, reason);
    vit->second.erase(it);
  }
  return dropped;
}

bool ObjectStore::rewrite_payload(
    const std::string& var, Version version, const Box& region,
    std::shared_ptr<const std::vector<std::uint8_t>> data,
    std::uint64_t stored_bytes) {
  auto vit = store_.find(var);
  if (vit == store_.end()) return false;
  auto it = vit->second.find(version);
  if (it == vit->second.end()) return false;
  for (Chunk& c : it->second) {
    if (!(c.region == region)) continue;
    // Representation change only (codec rebase): identity, nominal size and
    // content key are untouched, so no drop is emitted — the set of held
    // (var, version) pairs does not change.
    account(c, -1);
    c.data = std::move(data);
    c.stored_bytes = stored_bytes;
    account(c, +1);
    return true;
  }
  return false;
}

std::vector<Chunk> ObjectStore::chunks_of(const std::string& var,
                                          Version version) const {
  auto vit = store_.find(var);
  if (vit == store_.end()) return {};
  auto it = vit->second.find(version);
  if (it == vit->second.end()) return {};
  return it->second;
}

std::size_t ObjectStore::object_count() const {
  std::size_t n = 0;
  for (const auto& [var, versions] : store_) {
    for (const auto& [version, chunks] : versions) n += chunks.size();
  }
  return n;
}

}  // namespace dstage::staging
