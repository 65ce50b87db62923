#include "staging/governed_memory.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "staging/server.hpp"
#include "staging/tenant.hpp"

namespace dstage::staging {

GovernedMemory::GovernedMemory(ServerContext& ctx, const ObjectStore& store,
                               wlog::DataLog& dlog,
                               const std::map<AppId, wlog::EventQueue>& queues,
                               const gc::GarbageCollector& gc)
    : ctx_(&ctx),
      store_(&store),
      dlog_(&dlog),
      queues_(&queues),
      gc_(&gc),
      governor_(ctx.params.governor) {}

MemoryReport GovernedMemory::footprint() const {
  MemoryReport r;
  r.store_bytes = store_->nominal_bytes(Holder::kWindow);
  r.log_payload_bytes = store_->nominal_bytes(Holder::kLog);
  r.buffer_bytes = store_->nominal_bytes(Holder::kBoth);
  for (const auto& [app, q] : *queues_)
    r.log_metadata_bytes += q.metadata_bytes();
  return r;
}

bool GovernedMemory::admit(const Chunk& chunk, std::uint64_t incoming) {
  if (!governor_.enabled()) return true;
  MemoryGovernor::Admission verdict = governor_.admit(governed(), incoming);
  if (verdict == MemoryGovernor::Admission::kAdmitOverrun)
    ++ctx_->stats.governor_overruns;
  // Weighted fair share: a put that fits the pooled budget must also fit
  // its tenant's share, so a hoarding tenant bounces only its own writers.
  const bool tenant_check =
      verdict != MemoryGovernor::Admission::kReject && governor_.fair_share();
  if (tenant_check) {
    const net::TenantId tenant = tenant_of(chunk.var);
    verdict = governor_.admit_tenant(tenant, governed_bytes(tenant), incoming);
    if (verdict == MemoryGovernor::Admission::kAdmitOverrun)
      ++ctx_->stats.governor_overruns;
  }
  if (verdict != MemoryGovernor::Admission::kReject) return true;
  ++ctx_->stats.puts_rejected;
  if (tenant_check) ++ctx_->stats.fair_share_rejects;
  ctx_->track.emit(obs::Kind::kPutReject, chunk.var,
                   static_cast<std::int64_t>(chunk.version),
                   static_cast<std::int64_t>(chunk.nominal_bytes));
  poke();  // make sure relief is under way before the client retries
  return false;
}

bool GovernedMemory::any_tenant_over_share() const {
  if (!governor_.fair_share()) return false;
  for (const net::TenantId tenant : store_->tenants()) {
    if (governor_.over_share(tenant, governed_bytes(tenant))) return true;
  }
  return false;
}

void GovernedMemory::poke() {
  if (!governor_.enabled() || maintenance_inflight_) return;
  // Under fair share a single tenant over its slice needs relief even when
  // the pool as a whole is comfortable — otherwise a hoarding tenant's
  // writers bounce forever while the pooled watermark never trips.
  if (!governor_.over_soft(governed()) && !any_tenant_over_share()) return;
  maintenance_inflight_ = true;
  ctx_->spawn(maintain());
}

sim::Task<gc::SweepResult> GovernedMemory::sweep_log() {
  const gc::SweepResult sweep = gc_->sweep(*dlog_, ctx_->track);
  ctx_->stats.gc_versions_dropped += sweep.versions_dropped;
  ctx_->stats.gc_nominal_freed += sweep.nominal_freed;
  co_await ctx_->ctx().delay(
      ctx_->params.gc_cost_per_entry *
      static_cast<std::int64_t>(sweep.entries_scanned + 1));
  co_return sweep;
}

sim::Task<void> GovernedMemory::maintain() {
  sim::Ctx c = ctx_->ctx();
  const bool logging = ctx_->params.logging;
  // Urgent GC sweep first: versions the watermark already passed are freed
  // for an index walk, no PFS traffic.
  if (logging) {
    ++ctx_->stats.urgent_gc_sweeps;
    co_await sweep_log();
    prune_to_watermark();
  }

  // Then spill the coldest reclaim-ineligible log versions until the
  // governed footprint is back under the soft watermark. The victim is the
  // globally oldest retained version that is not its variable's newest —
  // the newest is live coupling data, which even GC never reclaims. Under
  // weighted fair-share, victims come from over-share tenants first: the
  // tenant that outgrew its slice pays the spill latency, not its
  // co-residents.
  while (spill_endpoint_ >= 0 && logging &&
         (governor_.over_soft(governed()) || any_tenant_over_share())) {
    std::string victim_var;
    Version victim_version = 0;
    bool found = false;
    bool found_over_share = false;
    for (const std::string& var : dlog_->variables()) {
      const auto versions = dlog_->versions_of(var);
      if (versions.size() < 2) continue;
      const net::TenantId tenant = tenant_of(var);
      const bool over_share =
          governor_.over_share(tenant, governed_bytes(tenant));
      if (found) {
        if (found_over_share && !over_share) continue;
        if (found_over_share == over_share &&
            versions.front() >= victim_version)
          continue;
      }
      found = true;
      found_over_share = over_share;
      victim_var = var;
      victim_version = versions.front();
    }
    if (!found) break;

    // Export form: delta blocks are rebased to self-contained full blocks,
    // so the gateway's copy decodes without this log's base versions.
    auto chunks = dlog_->export_chunks(victim_var, victim_version);
    if (chunks.empty()) break;
    const obs::SpanId span = ctx_->track.begin("spill", obs::Phase::kSpill);
    std::uint64_t bytes = 0;
    for (Chunk& chunk : chunks) {
      bytes += chunk.accounted_bytes();
      SpillPut sp;
      sp.owner = ctx_->self_index;
      sp.chunk = std::move(chunk);
      co_await ctx_->rpc.call(c, spill_endpoint_, std::move(sp));
    }
    ctx_->track.end(span);

    // The gateway round-trip let the request loop run: a checkpoint-driven
    // GC sweep or a rollback may have reclaimed the victim meanwhile. The
    // gateway's copy is then an orphan that the next prune retires; the
    // log must NOT be touched (the version is already gone, and dropping
    // a re-added successor would lose data).
    if (!dlog_->has(victim_var, victim_version)) {
      ++ctx_->stats.spills_aborted;
      continue;
    }
    dlog_->drop_spilled(victim_var, victim_version);
    spilled_[victim_var][victim_version] = bytes;
    ++ctx_->stats.spill_versions;
    ctx_->stats.spill_bytes += bytes;
    ctx_->track.emit(obs::Kind::kSpillOut, victim_var,
                     static_cast<std::int64_t>(victim_version),
                     static_cast<std::int64_t>(bytes));
  }
  // Nothing left to sweep or spill, yet still above the hard watermark:
  // the budget is below the workload's working-set floor (the window's
  // pieces, which the newest log versions hold too, are never evictable).
  // Every put will bounce until clients give up — say so once instead of
  // deadlocking silently.
  if (!budget_warned_ && !governor_.admitting(governed())) {
    budget_warned_ = true;
    std::fprintf(stderr,
                 "[staging] WARNING: server %d governed footprint %llu B "
                 "exceeds the hard watermark %llu B with nothing left to "
                 "spill; memory_budget is below the workload's working-set "
                 "floor\n",
                 ctx_->self_index,
                 static_cast<unsigned long long>(governed()),
                 static_cast<unsigned long long>(governor_.hard_bytes()));
  }
  maintenance_inflight_ = false;
}

sim::Task<void> GovernedMemory::ensure_resident(std::string var,
                                                Version version) {
  if (spill_endpoint_ < 0 || !spill_covers(var, version)) co_return;
  sim::Ctx c = ctx_->ctx();
  const obs::SpanId span = ctx_->track.begin("spill fetch", obs::Phase::kSpill,
                                             ctx_->request_span);
  SpillFetch fetch;
  fetch.owner = ctx_->self_index;
  fetch.var = var;
  fetch.version = version;
  SpillFetchResponse resp =
      co_await ctx_->rpc.call(c, spill_endpoint_, std::move(fetch));
  // The gateway round-trip let the request loop run: a concurrent fault-in
  // of the same version (two replay reads racing) may already have
  // re-ingested it and erased the spill-index entry, or a rollback may have
  // discarded it. Re-adding here would double-count the footprint — or
  // resurrect a rolled-back version.
  if (!spill_covers(var, version) || dlog_->has(var, version)) {
    ctx_->track.end(span);
    co_return;
  }
  std::uint64_t bytes = 0;
  for (Chunk& chunk : resp.chunks) {
    bytes += chunk.accounted_bytes();
    dlog_->add(std::move(chunk));
  }
  co_await c.delay(ctx_->copy_time(bytes));  // re-ingest into the log's index
  ++ctx_->stats.spill_fetches;
  ctx_->stats.spill_fetch_bytes += bytes;
  if (auto it = spilled_.find(var); it != spilled_.end()) {
    it->second.erase(version);
    if (it->second.empty()) spilled_.erase(it);
  }
  ctx_->track.end(span);
  ctx_->track.emit(obs::Kind::kSpillFetch, var,
                   static_cast<std::int64_t>(version),
                   static_cast<std::int64_t>(bytes));
  poke();  // the fault-in may have pushed us over the soft mark
}

sim::Task<void> GovernedMemory::fault_in_all() {
  std::vector<std::pair<std::string, Version>> parked;
  for (const auto& [var, versions] : spilled_) {
    for (const auto& [version, bytes] : versions)
      parked.emplace_back(var, version);
  }
  for (auto& [var, version] : parked) {
    co_await ensure_resident(var, version);
  }
}

void GovernedMemory::prune_to_watermark() {
  if (spilled_.empty()) return;
  for (auto vit = spilled_.begin(); vit != spilled_.end();) {
    const std::string& var = vit->first;
    const Version mark = gc_->watermark(var);
    auto& versions = vit->second;
    const auto passed = versions.upper_bound(mark);
    const bool dropped = passed != versions.begin();
    versions.erase(versions.begin(), passed);
    if (dropped && spill_endpoint_ >= 0) {
      net::Message prune{SpillPrune{ctx_->self_index, var, mark, false}};
      ctx_->rpc.post(
          ctx_->rpc.send(ctx_->ctx(), spill_endpoint_, std::move(prune)));
    }
    vit = versions.empty() ? spilled_.erase(vit) : std::next(vit);
  }
}

void GovernedMemory::rollback_above(Version version, net::TenantId tenant) {
  if (spilled_.empty()) return;
  for (auto vit = spilled_.begin(); vit != spilled_.end();) {
    if (tenant >= 0 && tenant_of(vit->first) != tenant) {
      ++vit;
      continue;
    }
    auto& versions = vit->second;
    versions.erase(versions.upper_bound(version), versions.end());
    vit = versions.empty() ? spilled_.erase(vit) : std::next(vit);
  }
  if (spill_endpoint_ >= 0) {
    net::Message prune{
        SpillPrune{ctx_->self_index, std::string{}, version, true, tenant}};
    ctx_->rpc.post(
        ctx_->rpc.send(ctx_->ctx(), spill_endpoint_, std::move(prune)));
  }
}

bool GovernedMemory::spill_covers(const std::string& var,
                                  Version version) const {
  auto it = spilled_.find(var);
  return it != spilled_.end() && it->second.count(version) > 0;
}

std::vector<Version> GovernedMemory::retained_versions(
    const std::string& var) const {
  std::vector<Version> out = dlog_->versions_of(var);
  if (auto it = spilled_.find(var); it != spilled_.end()) {
    for (const auto& [version, bytes] : it->second) out.push_back(version);
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
  }
  return out;
}

}  // namespace dstage::staging
