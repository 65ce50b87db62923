// Asynchronous checkpoint drain agent (DESIGN.md §12). One vproc serves
// the whole workflow: component clients announce freshly cached checkpoint
// sets (CkptStoreLocal, then the CkptXorShard parity distribution), and a
// single-flight drain loop flushes encoded sets oldest-first to the PFS —
// paying the cluster::Pfs cost model on the same FIFO channel as classic
// checkpoints and spill traffic, and yielding to staging memory-governor
// pressure so background durability never starves foreground puts. When a
// flush lands, the agent broadcasts CkptDrainAck to every staging server:
// the durable promotion that lets the GC watermark advance.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "ckpt/hierarchy.hpp"
#include "cluster/cluster.hpp"
#include "cluster/pfs.hpp"
#include "net/rpc.hpp"
#include "obs/recorder.hpp"

namespace dstage::ckpt {

/// Agent-side counters. Completed drains are counted once, by the
/// hierarchy (CkptStats::drains_completed).
struct DrainAgentStats {
  std::uint64_t store_notices = 0;   // CkptStoreLocal messages seen
  std::uint64_t shards_encoded = 0;  // CkptXorShard messages applied
  std::uint64_t drain_bytes = 0;      // nominal bytes flushed to the PFS
  std::uint64_t pressure_stalls = 0;  // backoffs taken under governor load
};

class DrainAgent {
 public:
  DrainAgent(cluster::Cluster& cluster, cluster::VprocId vproc,
             cluster::Pfs& pfs, CheckpointHierarchy& hierarchy,
             obs::Track track = {});

  /// Spawn the request-processing loop.
  void start();

  [[nodiscard]] net::EndpointId endpoint() const;
  [[nodiscard]] const DrainAgentStats& stats() const { return stats_; }
  [[nodiscard]] const obs::Track& track() const { return track_; }

  /// Staging servers to broadcast the durable promotion to.
  void set_server_endpoints(std::vector<net::EndpointId> endpoints) {
    server_endpoints_ = std::move(endpoints);
  }
  /// Memory-governor pressure probe (max over servers of governed bytes /
  /// soft watermark); each drain backs off 1, 2, 4, ... 64 ms while it
  /// reads above 1.0, then drains anyway. Null or unset means no pressure.
  void set_pressure(std::function<double()> pressure) {
    pressure_ = std::move(pressure);
  }
  /// Fired after each completed flush, before the server broadcast — the
  /// runtime advances the component's durable anchor here.
  void set_on_complete(std::function<void(int app, int ts)> on_complete) {
    on_complete_ = std::move(on_complete);
  }

 private:
  sim::Task<void> run();
  /// Single-flight: flush encoded sets oldest-first until none remain.
  sim::Task<void> drain_loop();

  [[nodiscard]] sim::Ctx ctx() { return cluster_->ctx_for(vproc_); }

  cluster::Cluster* cluster_;
  cluster::VprocId vproc_;
  cluster::Pfs* pfs_;
  CheckpointHierarchy* hierarchy_;
  net::Rpc rpc_;
  std::vector<net::EndpointId> server_endpoints_;
  std::function<double()> pressure_;
  std::function<void(int, int)> on_complete_;
  bool draining_ = false;
  DrainAgentStats stats_;
  obs::Track track_;
};

}  // namespace dstage::ckpt
