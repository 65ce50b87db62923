// Group manager: the control plane for elastic staging membership. One
// vproc serves the whole group; JoinGroup/RetireServer requests advance the
// spatial index's membership epoch, broadcast the new view to every server,
// and drive the background resilver that re-homes exactly the cells whose
// owner changed. Membership changes are serialized by the single request
// loop, so at most one rebalance is in flight at a time.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "dht/spatial_index.hpp"
#include "net/rpc.hpp"
#include "obs/recorder.hpp"
#include "staging/server.hpp"
#include "staging/types.hpp"

namespace dstage::staging {

struct GroupManagerStats {
  std::uint64_t joins = 0;             // servers admitted
  std::uint64_t retires = 0;           // servers drained + retired
  std::uint64_t rejected = 0;          // invalid change requests
  std::uint64_t membership_updates = 0;  // view broadcasts sent
  std::uint64_t resilver_chunks = 0;   // chunks moved by rebalancing
  std::uint64_t resilver_bytes = 0;    // nominal bytes moved
  std::uint64_t drain_sweeps = 0;      // extra passes to drain a retiree
  double resilver_time_s = 0;          // wall-clock spent moving data
};

class GroupManager {
 public:
  /// `servers` is indexed by staging server id and must cover every server
  /// that can ever join (standbys included). The index is the live one all
  /// servers and clients share.
  GroupManager(cluster::Cluster& cluster, cluster::VprocId vproc,
               dht::SpatialIndex& index, std::vector<StagingServer*> servers,
               obs::Track track = {});

  /// Spawn the request-processing loop.
  void start();

  [[nodiscard]] net::EndpointId endpoint() const;
  [[nodiscard]] const GroupManagerStats& stats() const { return stats_; }
  [[nodiscard]] std::uint64_t epoch() const { return index_->epoch(); }
  /// True while a rebalance is moving data (campaign failure injection
  /// targets this window).
  [[nodiscard]] bool resilver_active() const { return resilver_active_; }
  [[nodiscard]] const obs::Track& track() const { return track_; }

 private:
  sim::Task<void> run();
  sim::Task<void> handle_join(JoinGroup req);
  sim::Task<void> handle_retire(RetireServer req);
  sim::Task<void> handle_query(MembershipQuery req);
  /// Push the current view to every server (actives and standbys — a
  /// retiree must learn it no longer serves).
  sim::Task<void> broadcast_view();
  /// Drive the per-source resilver transfers for one batch of cell moves;
  /// returns the totals.
  sim::Task<StagingServer::ResilverOutcome> resilver_moves(
      std::vector<dht::CellMove> moves);

  [[nodiscard]] sim::Ctx ctx() { return cluster_->ctx_for(vproc_); }
  [[nodiscard]] net::EndpointId server_endpoint(int server) const {
    return servers_[static_cast<std::size_t>(server)]->endpoint();
  }

  cluster::Cluster* cluster_;
  cluster::VprocId vproc_;
  dht::SpatialIndex* index_;
  std::vector<StagingServer*> servers_;
  net::Rpc rpc_;
  GroupManagerStats stats_;
  bool resilver_active_ = false;
  obs::Track track_;
};

}  // namespace dstage::staging
