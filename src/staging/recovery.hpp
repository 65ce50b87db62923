// Staging-service recovery manager (the paper's Process/Data Resilience
// Component, Fig. 8): watches for staging-server failures, allocates a
// replacement from the spare pool, and brings it up through the
// rebuild-from-peers path (fragments restore the store and data log, the
// successor's mirror restores the event queues). Client requests that
// arrived while the server was down wait in its mailbox and are served
// after the rebuild.
#pragma once

#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "obs/recorder.hpp"
#include "staging/server.hpp"

namespace dstage::staging {

struct RecoveryManagerStats {
  int server_failures = 0;
  int servers_recovered = 0;
  int spare_exhausted = 0;
  /// Failures observed for a server whose recovery was already in flight;
  /// coalesced into that recovery instead of spawning a duplicate (which
  /// would double-acquire a spare and race two replacements).
  int coalesced_failures = 0;
};

class StagingRecoveryManager {
 public:
  /// @param servers the staging group (the manager replaces entries
  ///        in-place on recovery); all servers must have set_peers() wired.
  /// @param track event track for the degraded-mode metric and the
  ///        spare-exhaustion degradation (a loud event that triggers a
  ///        forensic dump).
  StagingRecoveryManager(cluster::Cluster& cluster,
                         std::vector<std::unique_ptr<StagingServer>>* servers,
                         std::vector<cluster::VprocId> server_vprocs,
                         ServerParams server_params, int spares = 4,
                         obs::Track track = {})
      : cluster_(&cluster),
        servers_(servers),
        server_vprocs_(std::move(server_vprocs)),
        params_(server_params),
        spares_(spares),
        track_(track) {}

  /// Register the failure observer. Call once, after servers are started.
  void arm();

  [[nodiscard]] const RecoveryManagerStats& stats() const { return stats_; }

  /// True while server `index` is failed with no replacement coming (the
  /// spare pool was exhausted when it died). Wire this into
  /// StagingClient::set_degraded_probe so client requests to the dead
  /// server surface the distinct "staging degraded" error instead of
  /// timing out silently.
  [[nodiscard]] bool is_degraded(int index) const {
    return degraded_.count(index) > 0;
  }
  [[nodiscard]] int degraded_count() const {
    return static_cast<int>(degraded_.size());
  }
  /// Optional notification when a server enters degraded mode.
  void set_on_degraded(std::function<void(int)> cb) {
    on_degraded_ = std::move(cb);
  }

 private:
  void on_failure(cluster::VprocId vproc);
  /// Acquire a spare and spawn recover(index), or enter degraded mode when
  /// the pool is empty. (The failure itself is counted by the caller.)
  void start_recovery(int index);
  sim::Task<void> recover(int index);

  cluster::Cluster* cluster_;
  std::vector<std::unique_ptr<StagingServer>>* servers_;
  std::vector<cluster::VprocId> server_vprocs_;
  ServerParams params_;
  cluster::SparePool spares_;
  /// Recovery latency model: spare join + service re-registration.
  sim::Duration respawn_cost_ = sim::seconds(2);
  RecoveryManagerStats stats_;
  /// Per-index recovery-in-flight guard: a second failure of the same
  /// vproc while recover(index) is awaiting the respawn delay must not
  /// spawn a second recovery.
  std::set<int> recovering_;
  /// Indexes that failed again mid-recovery; re-checked when the in-flight
  /// recovery lands.
  std::set<int> pending_;
  /// Indexes running degraded (failed, spare pool empty, unrecovered).
  std::set<int> degraded_;
  std::function<void(int)> on_degraded_;
  obs::Track track_;
};

}  // namespace dstage::staging
