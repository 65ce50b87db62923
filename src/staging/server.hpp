// Staging server actor. One vproc per server; requests arrive at its
// endpoint and are processed sequentially (queueing under load is the
// server-side contribution to write response time). Integrates the four
// components Figure 8 adds to the staging runtime: data logging, garbage
// collection, the global user interface events, and data resilience.
// It keeps the data plane, durability and the resilver hand-off of its own
// holdings, dispatches every message, and holds two components as plain
// members: PeerRedundancy and GovernedMemory (DESIGN.md, "Staging server
// structure").
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "cluster/cluster.hpp"
#include "dht/spatial_index.hpp"
#include "gc/garbage_collector.hpp"
#include "net/rpc.hpp"
#include "obs/recorder.hpp"
#include "resilience/policy.hpp"
#include "sim/spawn.hpp"
#include "staging/governed_memory.hpp"
#include "staging/memory_governor.hpp"
#include "staging/object_store.hpp"
#include "staging/redundancy.hpp"
#include "staging/types.hpp"
#include "wlog/data_log.hpp"
#include "wlog/event_queue.hpp"

namespace dstage::staging {

struct ServerParams {
  bool logging = false;
  /// Per-server payload processing bandwidth (copy + DHT index + version
  /// chain upkeep on a handful of staging cores — the staging service is
  /// compute-poor by design, which is why server-side logging shows up in
  /// write response times).
  double mem_bw = 6e9;
  /// Log-append work per payload byte, as a fraction of the store copy
  /// (the data log holds the window's pieces; appending is index,
  /// version-chain and refcount bookkeeping, not a second full copy).
  double log_append_fraction = 0.14;
  /// Fixed per-request processing overhead.
  sim::Duration request_overhead = sim::microseconds(3);
  /// GC sweep cost per scanned log entry (index walk).
  sim::Duration gc_cost_per_entry = sim::microseconds(2);
  /// Per-event queue/index maintenance cost when logging.
  sim::Duration log_event_overhead = sim::microseconds(2);
  /// Redundancy applied to staged (and logged) payloads.
  resilience::ResiliencePolicy policy;
  /// Versions per variable retained by the coupling window.
  int version_window = 2;
  /// Memory governor (budget 0 = disabled, the default).
  GovernorParams governor;
  /// Payload codec applied by the data log at retain time (kNone, the
  /// default, retains raw buffers and leaves every byte count unchanged).
  wlog::codec::Scheme log_codec = wlog::codec::Scheme::kNone;
};

struct ServerStats {
  std::uint64_t puts = 0;
  std::uint64_t fragments_held = 0;     // fragments stored for peers
  std::uint64_t gets = 0;
  std::uint64_t gets_pending = 0;   // gets that had to wait for data
  std::uint64_t puts_suppressed = 0;
  std::uint64_t gets_from_log = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t replay_mismatches = 0;
  std::uint64_t gc_versions_dropped = 0;
  std::uint64_t gc_nominal_freed = 0;
  // Memory-governor counters.
  std::uint64_t spill_versions = 0;      // log versions evicted to the PFS
  std::uint64_t spill_bytes = 0;         // nominal bytes evicted
  std::uint64_t spill_fetches = 0;       // spilled versions faulted back in
  std::uint64_t spill_fetch_bytes = 0;
  std::uint64_t spills_aborted = 0;      // victim reclaimed mid-spill
  std::uint64_t urgent_gc_sweeps = 0;    // sweeps forced by the soft mark
  std::uint64_t puts_rejected = 0;       // RetryLater backpressure responses
  std::uint64_t governor_overruns = 0;   // oversized puts admitted anyway
  /// Of puts_rejected, those bounced by the weighted fair-share check: the
  /// put fit the pooled hard watermark but not its own tenant's share.
  std::uint64_t fair_share_rejects = 0;
  /// Fragment pushes whose round-robin placement wrapped onto a peer that
  /// already holds a fragment of the same object (server_count too small
  /// for the policy's fan-out — survivability is degraded).
  std::uint64_t placement_clamped = 0;
  // Elastic-membership counters.
  std::uint64_t wrong_epoch_rejects = 0;   // stale-view requests bounced
  std::uint64_t resilver_chunks_out = 0;   // chunks handed to new owners
  std::uint64_t resilver_bytes_out = 0;
  std::uint64_t resilver_chunks_in = 0;    // chunks received as new owner
  std::uint64_t resilver_bytes_in = 0;
  std::uint64_t fragments_deduped = 0;     // duplicate fragment pushes skipped
  std::uint64_t fragment_fetches = 0;      // degraded-read fragment requests
  /// Multi-level checkpoint promotions: CkptDrainAck messages applied. Each
  /// marks an async PFS drain completing, which is the moment a cached
  /// checkpoint becomes durable and may advance the GC watermark.
  std::uint64_t drain_promotions = 0;
};

/// What a server shares with its components (PeerRedundancy,
/// GovernedMemory): configuration, identity, the one stats block, and the
/// ctx/RPC/track handles. Components hold a reference; they are plain
/// members of the same server, so none outlives it.
struct ServerContext {
  [[nodiscard]] sim::Ctx ctx() const { return cluster->ctx_for(vproc); }
  void spawn(sim::Task<void> task) const {
    sim::spawn(cluster->engine(), std::move(task));
  }
  [[nodiscard]] sim::Duration copy_time(std::uint64_t bytes) const {
    return sim::from_seconds(static_cast<double>(bytes) / params.mem_bw);
  }

  cluster::Cluster* cluster;
  cluster::VprocId vproc;
  ServerParams params;
  net::Rpc rpc;
  obs::Track track;
  ServerStats stats{};
  int self_index = 0;  // this server's index in the staging group
  /// Elastic membership: the live placement index (null = fixed group).
  const dht::SpatialIndex* group_index = nullptr;
  /// Requests are handled one at a time, so one "current request" span id
  /// suffices for parenting child spans.
  obs::SpanId request_span = 0;
};

class StagingServer {
 public:
  /// `track` is this server's event track ("staging-N"); a detached
  /// (default) track records nothing. The version store emits its window
  /// and log drops on it too, and the GC its checkpoints and sweeps.
  StagingServer(cluster::Cluster& cluster, cluster::VprocId vproc,
                ServerParams params, obs::Track track = {});
  // Components hold references into the server.
  StagingServer(const StagingServer&) = delete;
  StagingServer& operator=(const StagingServer&) = delete;

  /// Spawn the request-processing loop.
  void start();

  /// Wire this server into the staging group: its own index and every
  /// server's endpoint (enables fragment push and prune). All
  /// servers alias one shared endpoint list and (optionally) one shared
  /// initial membership view — per-server copies cost O(N²) bytes across
  /// the group, which forecloses 100k-server ceiling runs.
  void set_peers(int self_index,
                 std::shared_ptr<const std::vector<net::EndpointId>> endpoints,
                 std::shared_ptr<const std::vector<int>> initial_view = {});
  /// Convenience overload for tests and examples: wraps the vector.
  void set_peers(int self_index, std::vector<net::EndpointId> endpoints) {
    set_peers(self_index,
              std::make_shared<const std::vector<net::EndpointId>>(
                  std::move(endpoints)));
  }

  /// Declare variable coupling for GC retention decisions (mirrors what the
  /// workflow registers at startup).
  void register_var(const std::string& var,
                    std::vector<std::pair<AppId, bool>> consumers) {
    gc_.register_var(var, std::move(consumers));
  }
  /// Fault-injection seam for the consistency campaign (see
  /// gc::GarbageCollector::set_watermark_bias).
  void set_gc_watermark_bias(Version bias) { gc_.set_watermark_bias(bias); }

  /// Wire the memory governor to the PFS spill gateway. Without a gateway
  /// the governor still enforces admission (backpressure), but has nowhere
  /// to evict cold log versions.
  void set_spill_endpoint(net::EndpointId ep) {
    memory_.set_spill_endpoint(ep);
  }

  /// Elastic membership: point this server at the live placement index so
  /// it verifies ownership of every put/get against the current epoch.
  /// Non-null enables elastic mode — requests for cells this server no
  /// longer owns bounce with a typed wrong_epoch instead of being applied.
  void set_group_index(const dht::SpatialIndex* group) {
    ctx_.group_index = group;
  }

  /// Install a membership view (active server ids, ascending). Also
  /// delivered at runtime via MembershipUpdate messages; redundancy
  /// (fragment round-robin, prune fan-out) follows the active set only.
  void apply_membership(std::vector<int> active) {
    redundancy_.apply_membership(std::move(active));
  }

  /// Outcome of one resilver sweep (see resilver_out).
  struct ResilverOutcome {
    std::uint64_t chunks = 0;
    std::uint64_t bytes = 0;
  };

  /// Resilver hand-off, driven by the GroupManager: push every window/log
  /// piece intersecting `regions` to the new owner at `dest_ep` (each
  /// transfer is acknowledged before the local copy is dropped), then
  /// bounce parked gets for regions no longer owned. Sources back off
  /// while the destination's governor reports pressure. Plain shim over a
  /// private coroutine (GCC 12 coroutine-parameter caveat, see client).
  sim::Task<ResilverOutcome> resilver_out(int dest, net::EndpointId dest_ep,
                                          std::vector<Box> regions) {
    return resilver_out_impl(dest, dest_ep, std::move(regions));
  }

  /// One successor of a retiring server: the new owner of `regions`.
  struct DrainDest {
    net::EndpointId endpoint = 0;
    std::vector<Box> regions;
  };

  /// Retirement drain for chunks resilver_out cannot release: a piece
  /// straddling cells that moved to *different* successors is covered by
  /// no single transfer. This pass hands each remaining piece whole to
  /// every successor whose regions intersect it — sequentially, so every
  /// new owner holds the data before the local copy is dropped.
  sim::Task<ResilverOutcome> drain_out(std::vector<DrainDest> dests) {
    return hand_off(std::move(dests), Release::kAcked);
  }

  /// Retirement: re-home fragments held for other owners onto the active
  /// set, so redundancy survives this server leaving the group.
  sim::Task<void> handoff_redundancy() { return redundancy_.handoff(); }

  /// True when this server holds no primary data (retirement is complete).
  [[nodiscard]] bool drained() const {
    return store_.nominal_bytes(Holder::kBoth) == 0;
  }

  /// Spilled log versions per variable (version → nominal bytes) — the
  /// read-through index that replay-path gets consult.
  [[nodiscard]] const GovernedMemory::SpillIndex& spilled() const {
    return memory_.spilled();
  }

  [[nodiscard]] net::EndpointId endpoint() const;
  /// The one version store; its default view is the coupling window.
  [[nodiscard]] const ObjectStore& store() const { return store_; }
  /// The log holder of store().
  [[nodiscard]] const wlog::DataLog& data_log() const { return dlog_; }
  [[nodiscard]] const ServerStats& stats() const { return ctx_.stats; }
  [[nodiscard]] const obs::Track& track() const { return ctx_.track; }
  [[nodiscard]] MemoryReport memory() const;
  /// One tenant's window, log and distinct bytes: the footprint weighted
  /// fair-share admission charges that tenant.
  [[nodiscard]] MemoryReport memory(net::TenantId tenant) const {
    return memory_.footprint(tenant);
  }
  /// Peak total nominal bytes observed at request boundaries.
  [[nodiscard]] std::uint64_t peak_total_bytes() const { return peak_total_; }
  /// Time-averaged total nominal bytes (sampled at request boundaries,
  /// weighted by virtual time between samples).
  [[nodiscard]] double mean_total_bytes() const;

 private:
  sim::Task<void> run();
  /// Route one request to its handler. Handlers that suspend come back as
  /// the task to await; the rest (fragment puts and prunes, and messages
  /// this endpoint does not speak — spill, membership control and
  /// checkpoint-announcement traffic belongs to other endpoints) run here
  /// and return an empty task.
  sim::Task<void> dispatch(Request request);
  sim::Task<void> handle_put(PutRequest req);
  sim::Task<void> handle_get(GetRequest req);
  sim::Task<void> handle_checkpoint(CheckpointEvent ev);
  sim::Task<void> handle_recovery(RecoveryEvent ev);
  sim::Task<void> handle_rollback(RollbackRequest req);
  sim::Task<void> handle_query(QueryRequest query);
  sim::Task<void> handle_resilver_put(ResilverPut put);
  sim::Task<void> handle_ckpt_drain_ack(CkptDrainAck ack);

  /// The put state machine behind handle_put: the elastic ownership gate,
  /// replay suppression, idempotent-duplicate detection, governor
  /// admission, event logging, the store copy, log append, and redundancy
  /// encode/push. Pays every virtual-time cost except the per-request
  /// overhead, which handle_put charges.
  sim::Task<PutResponse> apply_put(AppId app, bool logged, Chunk chunk);

  void log_get(const GetRequest& req);

  /// Advance `app`'s durable checkpoint to `version`: emit kGcCheckpoint,
  /// then kGcWatermark for every variable whose watermark moved.
  void advance_watermark(AppId app, Version version);
  /// The durable-checkpoint GC path shared by handle_checkpoint and the
  /// drain agent's CkptDrainAck promotion: sweep the data log behind the
  /// advanced watermark, retire passed spill files, and tell peers to
  /// reclaim fragments below the retention floor. Caller guards on
  /// params.logging.
  sim::Task<void> sweep_after_durable();

  /// True in elastic mode when the current epoch maps any cell of
  /// `region` to a different owner.
  [[nodiscard]] bool not_owner(const Box& region) const;

  /// Serve a get whose data is present; pays response transport.
  sim::Task<void> respond_get(GetRequest req, std::vector<Chunk> pieces,
                              bool from_log);
  /// Serve parked gets that (var, version) now satisfies, from the base
  /// store or (a log-only resilver landed) from the data log.
  void wake_pending(const std::string& var, Version version, bool from_log);

  sim::Task<ResilverOutcome> resilver_out_impl(int dest,
                                               net::EndpointId dest_ep,
                                               std::vector<Box> regions);
  /// How a hand-off releases the local copy of a version's pieces: once
  /// any was acked, those the (single) destination's regions cover
  /// (resilver); or those every intersecting destination acked (drain).
  enum class Release { kCovered, kAcked };
  /// The one walk over this server's holdings: each (var, version) the
  /// window or the log holds, in ascending order, each piece to every
  /// destination whose regions intersect it, then release per `release`.
  sim::Task<ResilverOutcome> hand_off(std::vector<DrainDest> dests,
                                      Release release);

  void sample_memory();

  ServerContext ctx_;
  ObjectStore store_;     // the one version store: window and log pieces
  wlog::DataLog dlog_;    // the log holder of store_
  std::map<AppId, wlog::EventQueue> queues_;
  // app → tenant, learned from the tenant field every request carries.
  // Lets a tenant-scoped rollback drop only that tenant's replay queues.
  std::map<AppId, net::TenantId> app_tenants_;
  gc::GarbageCollector gc_;
  std::vector<GetRequest> pending_;
  std::uint64_t next_chk_id_ = 1;
  PeerRedundancy redundancy_;
  GovernedMemory memory_;
  // Memory sampling for peak / time-averaged usage.
  std::uint64_t peak_total_ = 0;
  double byte_seconds_ = 0;
  sim::TimePoint last_sample_{};
  std::uint64_t last_total_ = 0;
};

}  // namespace dstage::staging
