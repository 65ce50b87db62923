#include "staging/degraded_read.hpp"

#include <map>
#include <span>
#include <utility>

#include "resilience/reed_solomon.hpp"
#include "staging/object_store.hpp"
#include "util/checksum.hpp"

namespace dstage::staging {

std::optional<Chunk> reconstruct_chunk(
    const std::vector<const FragmentPut*>& frags,
    const resilience::ResiliencePolicy& policy) {
  const FragmentPut& first = *frags.front();
  Chunk chunk;
  chunk.var = first.var;
  chunk.version = first.version;
  chunk.region = first.region;

  if (policy.kind == resilience::Redundancy::kReplication) {
    for (const FragmentPut* f : frags) {
      if (!f->data || !verify_payload(std::as_bytes(std::span{*f->data}),
                                      f->content_key))
        continue;
      chunk.nominal_bytes = f->nominal_bytes;
      chunk.content_key = f->content_key;
      chunk.data = f->data;
      return chunk;
    }
    return std::nullopt;
  }
  if (policy.kind != resilience::Redundancy::kErasureCode) return std::nullopt;

  const resilience::ReedSolomon rs(policy.rs_k, policy.rs_m);
  std::vector<resilience::Shard> shards(
      static_cast<std::size_t>(rs.total_shards()));
  std::size_t original_physical = 0;
  std::uint64_t shard_nominal = 0;
  std::uint64_t content_key = 0;
  for (const FragmentPut* f : frags) {
    original_physical = f->original_physical;
    shard_nominal = f->nominal_bytes;
    content_key = f->content_key;
    if (f->data && f->frag_index >= 0 && f->frag_index < rs.total_shards()) {
      shards[static_cast<std::size_t>(f->frag_index)] = *f->data;
    }
  }
  auto decoded = rs.decode(shards, original_physical);
  if (!decoded ||
      !verify_payload(std::as_bytes(std::span{*decoded}), content_key)) {
    return std::nullopt;
  }
  chunk.nominal_bytes = shard_nominal * static_cast<std::uint64_t>(policy.rs_k);
  chunk.content_key = content_key;
  chunk.data =
      std::make_shared<std::vector<std::uint8_t>>(std::move(*decoded));
  return chunk;
}

DegradedReconstruction reconstruct_from_fragments(
    const std::vector<FragmentPut>& fragments, const ObjectDesc& desc,
    const resilience::ResiliencePolicy& policy) {
  DegradedReconstruction out;

  // Group the surviving fragments by the owner chunk they protect. The
  // broadcast may return the same fragment from several epochs of
  // re-pushing; reconstruct_chunk's per-index slotting dedups naturally.
  std::map<std::uint64_t, std::vector<const FragmentPut*>> groups;
  for (const FragmentPut& f : fragments) {
    if (f.var != desc.var || f.version != desc.version) continue;
    if (f.region.intersection(desc.region).empty()) continue;
    groups[region_hash(f.region)].push_back(&f);
  }
  if (groups.empty()) {
    throw DataLossError(desc.var, desc.version,
                        "no surviving fragments for the requested region");
  }

  // Rebuild each owner chunk, verify it, and stage it in a scratch store so
  // overlap/coverage arithmetic matches the normal get path exactly.
  ObjectStore scratch(1 << 30);
  for (const auto& [hash, frags] : groups) {
    std::optional<Chunk> chunk = reconstruct_chunk(frags, policy);
    if (!chunk) continue;
    ++out.chunks_rebuilt;
    out.nominal_bytes += chunk->nominal_bytes;
    scratch.put(std::move(*chunk));
  }

  if (!scratch.covers(desc.var, desc.version, desc.region)) {
    throw DataLossError(desc.var, desc.version,
                        "fragment losses exceed the policy's tolerance");
  }
  out.pieces = scratch.get(desc.var, desc.version, desc.region);
  return out;
}

}  // namespace dstage::staging
