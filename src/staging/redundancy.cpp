#include "staging/redundancy.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "resilience/reed_solomon.hpp"
#include "staging/server.hpp"

namespace dstage::staging {

void PeerRedundancy::set_peers(
    std::shared_ptr<const std::vector<net::EndpointId>> endpoints,
    std::shared_ptr<const std::vector<int>> initial_view) {
  peer_endpoints_ = std::move(endpoints);
  if (initial_view != nullptr) {
    active_view_ = std::move(initial_view);
  } else {
    // Default membership view: every peer is active. Elastic runs
    // overwrite this via apply_membership / MembershipUpdate; non-elastic
    // runs keep it, which makes the view-based fan-out byte-identical to
    // index order over all peers.
    auto identity = std::make_shared<std::vector<int>>(peers().size());
    for (std::size_t s = 0; s < identity->size(); ++s)
      (*identity)[s] = static_cast<int>(s);
    active_view_ = std::move(identity);
  }
  refresh_view_pos();
}

void PeerRedundancy::apply_membership(std::vector<int> active) {
  active_view_ = std::make_shared<const std::vector<int>>(std::move(active));
  refresh_view_pos();
}

void PeerRedundancy::refresh_view_pos() {
  // O(1) when the server sits at its own index, as in the identity view
  // every non-elastic run keeps; a scan otherwise.
  const int self_index = ctx_->self_index;
  const auto self = static_cast<std::size_t>(self_index);
  if (self_index >= 0 && self < view().size() && view()[self] == self_index) {
    view_pos_ = self_index;
    return;
  }
  view_pos_ = position(self_index);
}

int PeerRedundancy::position(int server) const {
  const auto it = std::find(view().begin(), view().end(), server);
  return it == view().end() ? -1 : static_cast<int>(it - view().begin());
}

int PeerRedundancy::placement(int pos, int slot) const {
  const int n = static_cast<int>(view().size());
  if (n < 2 || pos < 0) return -1;
  return view()[static_cast<std::size_t>((pos + 1 + (slot - 1) % (n - 1)) %
                                         n)];
}

void PeerRedundancy::apply(FragmentPut frag) {
  if (ctx_->group_index != nullptr) {
    // Elastic runs re-push fragments during resilver and retirement
    // hand-off; an identical fragment already held must not be counted
    // twice (durability accounting would overstate redundancy).
    for (const FragmentPut& held : fragments_[frag.owner]) {
      if (held.var == frag.var && held.version == frag.version &&
          held.frag_index == frag.frag_index &&
          held.region == frag.region) {
        ++ctx_->stats.fragments_deduped;
        return;
      }
    }
  }
  fragment_bytes_ += frag.nominal_bytes;
  ++ctx_->stats.fragments_held;
  fragments_[frag.owner].push_back(std::move(frag));
}

void PeerRedundancy::apply(FragmentPrune prune) {
  auto it = fragments_.find(prune.owner);
  if (it == fragments_.end()) return;
  std::erase_if(it->second, [&](const FragmentPut& f) {
    const bool drop = f.var == prune.var && f.version <= prune.upto;
    if (drop) fragment_bytes_ -= f.nominal_bytes;
    return drop;
  });
}

sim::Task<void> PeerRedundancy::handle(FragmentFetch fetch) {
  sim::Ctx c = ctx_->ctx();
  co_await c.delay(ctx_->params.request_overhead);
  ++ctx_->stats.fragment_fetches;
  FragmentFetchResponse resp;
  if (auto it = fragments_.find(fetch.owner); it != fragments_.end()) {
    for (const FragmentPut& f : it->second) {
      if (f.var == fetch.var && f.version == fetch.version)
        resp.fragments.push_back(f);
    }
  }
  co_await c.delay(ctx_->copy_time(net::wire_size(resp)));  // gather/pack
  co_await ctx_->rpc.fulfill(c, fetch.reply_to, std::move(fetch.reply),
                             std::move(resp));
}

sim::Task<void> PeerRedundancy::handle(MembershipUpdate update) {
  sim::Ctx c = ctx_->ctx();
  co_await c.delay(ctx_->params.request_overhead);
  apply_membership(std::move(update.active));
}

sim::Task<void> PeerRedundancy::push_fragments(Chunk chunk, bool logged) {
  // Placement follows the *active* membership view, so joins widen the
  // fan-out and retiring servers stop receiving new fragments.
  const int group = static_cast<int>(view().size());
  if (group < 2 || view_pos_ < 0) co_return;
  sim::Ctx c = ctx_->ctx();
  const ServerParams& params = ctx_->params;

  // Placement wraps when the policy's fan-out exceeds the group: several
  // fragments of one object land on the same peer, so the policy's nominal
  // max_losses() overstates survivability. The push still proceeds
  // (single-failure tolerance holds: the owner's loss leaves all pushed
  // fragments intact), but the degradation is loud — once on stderr, and
  // per push in stats/metrics.
  if (params.policy.fragments_total() > group) {
    ++ctx_->stats.placement_clamped;
    if (!placement_warned_) {
      placement_warned_ = true;
      std::fprintf(stderr,
                   "dstage: staging-%d: resilience policy wants %d distinct "
                   "fragment holders but the group has %d servers; placement "
                   "wraps and survivability is degraded\n",
                   ctx_->self_index, params.policy.fragments_total(), group);
    }
  }

  // Slot j carries a full copy under replication (the next replicas-1
  // peers). Under erasure coding the owner keeps the full payload (fast
  // local reads) and slot j carries shard j of all k+m, so the loss of this
  // server leaves k-1+m >= k survivors for reconstruction.
  const bool replicate =
      params.policy.kind == resilience::Redundancy::kReplication;
  int slots = params.policy.replicas;
  std::uint64_t nominal = chunk.nominal_bytes;
  std::vector<resilience::Shard> shards;
  if (!replicate) {
    const resilience::ReedSolomon rs(params.policy.rs_k, params.policy.rs_m);
    if (chunk.data) shards = rs.encode(*chunk.data);
    slots = rs.total_shards();
    nominal /= static_cast<std::uint64_t>(params.policy.rs_k);
  }
  for (int j = 1;
       j < slots && (!replicate || j < static_cast<int>(view().size()));
       ++j) {
    std::shared_ptr<const std::vector<std::uint8_t>> data;
    if (replicate) {
      data = chunk.data;
    } else if (!shards.empty()) {
      data = std::make_shared<std::vector<std::uint8_t>>(
          std::move(shards[static_cast<std::size_t>(j)]));
    }
    const int peer = placement(view_pos_, j);
    if (peer < 0) co_return;
    net::Message frag{FragmentPut{ctx_->self_index,  chunk.var,
                                  chunk.version,     chunk.region,
                                  j,                 nominal,
                                  chunk.data ? chunk.data->size() : 0,
                                  chunk.content_key, logged,
                                  std::move(data)}};
    co_await ctx_->rpc.send(c, peers()[static_cast<std::size_t>(peer)],
                            std::move(frag));
  }
}

bool PeerRedundancy::prunes() const {
  return ctx_->params.policy.kind != resilience::Redundancy::kNone &&
         view().size() > 1;
}

void PeerRedundancy::prune_peers(const std::string& var, Version upto) {
  // Retired standbys hold no fragments worth pruning.
  for (int p : view()) {
    if (p == ctx_->self_index) continue;
    net::Message prune{FragmentPrune{ctx_->self_index, var, upto}};
    ctx_->rpc.post(ctx_->rpc.send(ctx_->ctx(),
                                  peers()[static_cast<std::size_t>(p)],
                                  std::move(prune)));
  }
}

sim::Task<void> PeerRedundancy::handoff() {
  sim::Ctx c = ctx_->ctx();
  // Re-home fragments held for still-active owners on the owner's own
  // placement over the current view — the same peer the owner would choose
  // when re-pushing, so the receiver's dedup absorbs any overlap instead of
  // double-counting durability. Fragments for owners that also left the
  // group die here: their primaries drained with them.
  if (view().size() >= 2) {
    for (auto& [owner, frags] : fragments_) {
      const int pos = position(owner);
      if (pos < 0) continue;
      for (FragmentPut& f : frags) {
        const int target = placement(pos, std::max(f.frag_index, 1));
        if (target < 0 || target == owner) continue;
        net::Message msg{f};
        co_await ctx_->rpc.send(c, peers()[static_cast<std::size_t>(target)],
                                std::move(msg));
      }
    }
  }
  fragments_.clear();
  fragment_bytes_ = 0;
}

}  // namespace dstage::staging
