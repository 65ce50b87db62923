// PFS spill gateway: the staging-side face of the parallel file system for
// memory-governor evictions. One gateway vproc serves the whole staging
// group; servers above their soft watermark push cold log versions here
// (SpillPut), fault them back in on replay (SpillFetch), and reclaim them
// when the GC watermark passes or a rollback discards them (SpillPrune).
// Every payload transfer pays the cluster::Pfs cost model, so spill traffic
// contends with checkpoint traffic on the same FIFO channel — exactly the
// coupling a real deployment has.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/pfs.hpp"
#include "net/rpc.hpp"
#include "obs/recorder.hpp"
#include "staging/object_store.hpp"
#include "staging/types.hpp"

namespace dstage::staging {

struct SpillGatewayStats {
  std::uint64_t spill_puts = 0;     // chunks persisted
  std::uint64_t spill_bytes = 0;    // nominal bytes persisted
  std::uint64_t fetches = 0;        // payload fetches served
  std::uint64_t fetch_bytes = 0;    // nominal bytes read back
  std::uint64_t pruned_versions = 0;
};

class SpillGateway {
 public:
  SpillGateway(cluster::Cluster& cluster, cluster::VprocId vproc,
               cluster::Pfs& pfs, obs::Track track = {});

  /// Spawn the request-processing loop.
  void start();

  [[nodiscard]] net::EndpointId endpoint() const;
  [[nodiscard]] const SpillGatewayStats& stats() const { return stats_; }
  [[nodiscard]] const obs::Track& track() const { return track_; }

  // Oracle-facing holdings API (aggregated across owners), shaped like the
  // ObjectStore accessors: the oracle's integrity walk and durability union
  // read the gateway as one more holder.
  [[nodiscard]] std::vector<std::string> variables() const;
  [[nodiscard]] std::vector<Version> versions_of(const std::string& var) const;
  [[nodiscard]] std::vector<Chunk> get(const std::string& var, Version version,
                                       const Box& region) const;
  [[nodiscard]] std::uint64_t nominal_bytes() const;

 private:
  sim::Task<void> run();
  sim::Task<void> handle_put(SpillPut put);
  sim::Task<void> handle_fetch(SpillFetch fetch);
  void handle_prune(const SpillPrune& prune);

  [[nodiscard]] sim::Ctx ctx() { return cluster_->ctx_for(vproc_); }

  cluster::Cluster* cluster_;
  cluster::VprocId vproc_;
  cluster::Pfs* pfs_;
  net::Rpc rpc_;
  /// Spill "files" per owning server. Owners spill disjoint key ranges in
  /// normal operation, but keeping them separate makes prune exact.
  std::map<int, ObjectStore> per_owner_;
  SpillGatewayStats stats_;
  obs::Track track_;
};

}  // namespace dstage::staging
