#include "staging/recovery.hpp"

#include <cstdio>

#include "sim/spawn.hpp"

namespace dstage::staging {

void StagingRecoveryManager::arm() {
  cluster_->on_failure([this](cluster::VprocId vp) { on_failure(vp); });
}

void StagingRecoveryManager::on_failure(cluster::VprocId vproc) {
  for (std::size_t i = 0; i < server_vprocs_.size(); ++i) {
    if (server_vprocs_[i] != vproc) continue;
    const int index = static_cast<int>(i);
    ++stats_.server_failures;
    if (recovering_.count(index) > 0) {
      // A recovery for this server is already in flight. Spawning another
      // would double-acquire a spare and race two replacements into the
      // same slot; coalesce instead and re-check when the first one lands.
      ++stats_.coalesced_failures;
      pending_.insert(index);
      return;
    }
    start_recovery(index);
    return;
  }
}

void StagingRecoveryManager::start_recovery(int index) {
  if (!spares_.acquire()) {
    ++stats_.spare_exhausted;
    // No replacement is coming: the group runs degraded and every
    // request to this server is lost. That must be loud.
    degraded_.insert(index);
    std::fprintf(stderr,
                 "[staging] WARNING: spare pool exhausted; server %d is "
                 "down and will NOT be recovered (degraded mode)\n",
                 index);
    track_.count("recovery.degraded_servers");
    track_.degrade("spare pool exhausted; server " + std::to_string(index) +
                   " down unrecovered (degraded mode)");
    if (on_degraded_) on_degraded_(index);
    return;
  }
  recovering_.insert(index);
  sim::spawn(cluster_->engine(), recover(index));
}

sim::Task<void> StagingRecoveryManager::recover(int index) {
  sim::Ctx sys{&cluster_->engine(), nullptr};
  // Spare process joins and re-registers with the staging group.
  co_await sys.delay(respawn_cost_);
  const auto vp = server_vprocs_[static_cast<std::size_t>(index)];
  cluster_->revive(vp);

  // Fresh server instance on the same vproc/endpoint: the mailbox (and any
  // backlog that accumulated during the outage) is preserved. It records on
  // its predecessor's track.
  const StagingServer& predecessor =
      *(*servers_)[static_cast<std::size_t>(index)];
  auto replacement = std::make_unique<StagingServer>(*cluster_, vp, params_,
                                                     predecessor.track());
  replacement->take_over(predecessor);
  (*servers_)[static_cast<std::size_t>(index)] = std::move(replacement);
  (*servers_)[static_cast<std::size_t>(index)]->start_with_recovery();
  ++stats_.servers_recovered;
  degraded_.erase(index);
  recovering_.erase(index);

  // Failures coalesced while this recovery was in flight: the replacement
  // we just started rebuilt from post-failure peer state, so they are
  // normally covered — but if the vproc died again after the revive above,
  // a fresh recovery round is needed (the failure was already counted when
  // it was coalesced).
  if (pending_.erase(index) > 0 && !cluster_->vproc(vp).alive) {
    start_recovery(index);
  }
}

}  // namespace dstage::staging
