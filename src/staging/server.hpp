// Staging server actor. One vproc per server; requests arrive at its
// endpoint and are processed sequentially (queueing under load is the
// server-side contribution to write response time). Integrates the four
// components Figure 8 adds to the staging runtime: data logging, garbage
// collection, the global user interface events, and data resilience.
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
#include "staging/memory_governor.hpp"
#include "staging/object_store.hpp"
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
  /// (the data log shares buffers with the store; appending is index,
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
  /// Versions per variable retained by the base store.
  int version_window = 2;
  /// Memory governor (budget 0 = disabled, the default).
  GovernorParams governor;
  /// Payload codec applied by the data log at retain time (kNone, the
  /// default, retains raw buffers and leaves every byte count unchanged).
  wlog::codec::Scheme log_codec = wlog::codec::Scheme::kNone;
};

struct ServerStats {
  std::uint64_t puts = 0;
  std::uint64_t batch_puts = 0;  // coalesced put messages unpacked
  std::uint64_t fragments_held = 0;     // fragments stored for peers
  std::uint64_t fragments_pushed = 0;   // fragments sent to peers
  std::uint64_t mirrored_events = 0;    // queue records mirrored here
  std::uint64_t chunks_rebuilt = 0;     // objects restored after recovery
  std::uint64_t rebuild_failures = 0;   // unrecoverable objects
  std::uint64_t gets = 0;
  std::uint64_t gets_pending = 0;   // gets that had to wait for data
  std::uint64_t puts_suppressed = 0;
  std::uint64_t gets_from_log = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t recoveries = 0;
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

/// Point-in-time memory report (nominal, i.e. paper-scale bytes).
struct MemoryReport {
  std::uint64_t store_bytes = 0;       // base object store
  std::uint64_t log_payload_bytes = 0; // data-log retained payloads
  std::uint64_t log_metadata_bytes = 0;
  std::uint64_t redundancy_bytes = 0;  // parity / replica overhead
  [[nodiscard]] std::uint64_t total() const {
    return store_bytes + log_payload_bytes + log_metadata_bytes +
           redundancy_bytes;
  }
  /// The memory governor's budgeted footprint: what this server holds for
  /// its *own* objects. Redundancy fragments held on peers' behalf are
  /// excluded — they are budgeted by their owners.
  [[nodiscard]] std::uint64_t governed() const {
    return store_bytes + log_payload_bytes + log_metadata_bytes;
  }
};

class StagingServer {
 public:
  /// `track` is this server's event track ("staging-N"); a detached
  /// (default) track records nothing.
  StagingServer(cluster::Cluster& cluster, cluster::VprocId vproc,
                ServerParams params, obs::Track track = {});

  /// Spawn the request-processing loop.
  void start();

  /// Wire this server into the staging group: its own index and every
  /// server's endpoint (enables fragment push and queue mirroring). All
  /// servers alias one shared endpoint list and (optionally) one shared
  /// initial membership view — per-server copies cost O(N²) bytes across
  /// the group, which forecloses 100k-server ceiling runs.
  void set_peers(int self_index,
                 std::shared_ptr<const std::vector<net::EndpointId>> endpoints,
                 std::shared_ptr<const std::vector<int>> initial_view = {});
  /// Convenience overload for tests and recovery: wraps the vector.
  void set_peers(int self_index, std::vector<net::EndpointId> endpoints) {
    set_peers(self_index,
              std::make_shared<const std::vector<net::EndpointId>>(
                  std::move(endpoints)));
  }

  /// Spawn a replacement server's loop: first rebuild the store, log and
  /// event queues from the peers' fragments/mirrors, then serve the (queued)
  /// mailbox backlog.
  void start_with_recovery();

  /// Declare variable coupling for GC retention decisions (mirrors what the
  /// workflow registers at startup).
  void register_var(const std::string& var,
                    std::vector<std::pair<AppId, bool>> consumers) {
    gc_.register_var(var, std::move(consumers));
  }

  /// Consistency-oracle instrumentation: one bundle of observation hooks
  /// covering the base store, the data log, and the garbage collector.
  /// Probes observe state transitions without touching virtual time; any
  /// member may be null.
  struct ProbeSet {
    ObjectStore::PutProbe store_put;
    ObjectStore::DropProbe store_drop;
    ObjectStore::PutProbe log_put;
    ObjectStore::DropProbe log_drop;
    gc::GarbageCollector::CheckpointProbe gc_checkpoint;
    gc::GarbageCollector::SweepProbe gc_sweep;
  };
  void install_probes(ProbeSet probes) {
    store_.set_probes(std::move(probes.store_put),
                      std::move(probes.store_drop));
    dlog_.set_probes(std::move(probes.log_put), std::move(probes.log_drop));
    gc_.set_probes(std::move(probes.gc_checkpoint),
                   std::move(probes.gc_sweep));
  }

  /// Fault-injection seam for the consistency campaign (see
  /// gc::GarbageCollector::set_watermark_bias).
  void set_gc_watermark_bias(Version bias) { gc_.set_watermark_bias(bias); }

  /// Wire the memory governor to the PFS spill gateway. Without a gateway
  /// the governor still enforces admission (backpressure), but has nowhere
  /// to evict cold log versions.
  void set_spill_endpoint(net::EndpointId ep) { spill_endpoint_ = ep; }

  /// Elastic membership: point this server at the live placement index so
  /// it verifies ownership of every put/get against the current epoch.
  /// Non-null enables elastic mode — requests for cells this server no
  /// longer owns bounce with a typed wrong_epoch instead of being applied.
  void set_group_index(const dht::SpatialIndex* group) {
    group_index_ = group;
  }
  [[nodiscard]] bool elastic() const { return group_index_ != nullptr; }

  /// Install a membership view (epoch + active server ids, ascending).
  /// Also delivered at runtime via MembershipUpdate messages; redundancy
  /// (mirror successor, fragment round-robin, prune fan-out) follows the
  /// active set only.
  void apply_membership(std::uint64_t epoch, std::vector<int> active);
  [[nodiscard]] std::uint64_t membership_epoch() const { return view_epoch_; }

  /// Outcome of one resilver sweep (see resilver_out).
  struct ResilverOutcome {
    std::uint64_t chunks = 0;
    std::uint64_t bytes = 0;
  };

  /// Resilver hand-off, driven by the GroupManager: push every store/log
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
    int server = -1;
    net::EndpointId endpoint = 0;
    std::vector<Box> regions;
  };

  /// Retirement drain for chunks resilver_out cannot release: a piece
  /// straddling cells that moved to *different* successors is covered by
  /// no single transfer. This pass hands each remaining piece whole to
  /// every successor whose regions intersect it — sequentially, so every
  /// new owner holds the data before the local copy is dropped.
  sim::Task<ResilverOutcome> drain_out(std::vector<DrainDest> dests) {
    return drain_out_impl(std::move(dests));
  }

  /// Retirement: re-home fragments held for other owners and forward
  /// mirrored queue events onto the active set, so redundancy survives
  /// this server leaving the group.
  sim::Task<void> handoff_redundancy() { return handoff_redundancy_impl(); }

  /// True when this server holds no primary data (retirement is complete).
  [[nodiscard]] bool drained() const {
    return store_.nominal_bytes() == 0 && dlog_.nominal_bytes() == 0;
  }

  /// Spilled log versions per variable (version → nominal bytes) — the
  /// read-through index that replay-path gets consult.
  [[nodiscard]] const std::map<std::string, std::map<Version, std::uint64_t>>&
  spilled() const {
    return spilled_;
  }

  [[nodiscard]] cluster::VprocId vproc() const { return vproc_; }
  [[nodiscard]] net::EndpointId endpoint() const;
  [[nodiscard]] const ObjectStore& store() const { return store_; }
  [[nodiscard]] const wlog::DataLog& data_log() const { return dlog_; }
  [[nodiscard]] const gc::GarbageCollector& gc() const { return gc_; }
  [[nodiscard]] const ServerStats& stats() const { return stats_; }
  [[nodiscard]] const obs::Track& track() const { return track_; }
  [[nodiscard]] MemoryReport memory() const;
  /// One tenant's governed footprint: its store + retained log payloads
  /// (event-queue metadata is unattributed — it is bounded by truncation
  /// and negligible next to payloads).
  [[nodiscard]] std::uint64_t governed_bytes(net::TenantId tenant) const {
    return store_.nominal_bytes(tenant) + dlog_.nominal_bytes(tenant);
  }
  /// Peak total nominal bytes observed at request boundaries.
  [[nodiscard]] std::uint64_t peak_total_bytes() const { return peak_total_; }
  /// Time-averaged total nominal bytes (sampled at request boundaries,
  /// weighted by virtual time between samples).
  [[nodiscard]] double mean_total_bytes() const;
  [[nodiscard]] std::size_t pending_get_count() const {
    return pending_.size();
  }
  [[nodiscard]] const ServerParams& params() const { return params_; }

 private:
  sim::Task<void> run();
  sim::Task<void> handle(Request request);
  sim::Task<void> handle_put(PutRequest req);
  sim::Task<void> handle_batch_put(BatchPut req);
  sim::Task<void> handle_get(GetRequest req);
  sim::Task<void> handle_checkpoint(CheckpointEvent ev);
  sim::Task<void> handle_recovery(RecoveryEvent ev);
  sim::Task<void> handle_rollback(RollbackRequest req);
  sim::Task<void> handle_fragment_put(FragmentPut frag);
  sim::Task<void> handle_fragment_prune(FragmentPrune prune);
  sim::Task<void> handle_queue_backup(QueueBackup backup);
  sim::Task<void> handle_recovery_pull(RecoveryPull pull);
  sim::Task<void> handle_query(QueryRequest query);
  sim::Task<void> handle_membership_update(MembershipUpdate update);
  sim::Task<void> handle_fragment_fetch(FragmentFetch fetch);
  sim::Task<void> handle_resilver_put(ResilverPut put);
  sim::Task<void> handle_ckpt_drain_ack(CkptDrainAck ack);
  /// The durable-checkpoint GC path shared by handle_checkpoint and the
  /// drain agent's CkptDrainAck promotion: sweep the data log behind the
  /// advanced watermark, retire passed spill files, and tell peers to
  /// reclaim fragments below the retention floor. Caller guards on
  /// params_.logging.
  sim::Task<void> sweep_after_durable();
  /// Every registered variable's GC watermark, for diffing around a
  /// checkpoint.
  [[nodiscard]] std::vector<std::pair<std::string, Version>> watermarks()
      const;
  /// Emit kGcWatermark for every variable whose watermark moved past its
  /// `before` value.
  void emit_watermark_advances(
      const std::vector<std::pair<std::string, Version>>& before);
  sim::Task<ResilverOutcome> resilver_out_impl(int dest,
                                               net::EndpointId dest_ep,
                                               std::vector<Box> regions);
  sim::Task<ResilverOutcome> drain_out_impl(std::vector<DrainDest> dests);
  sim::Task<void> handoff_redundancy_impl();
  /// Position of this server in the active view, or -1 when retired.
  /// O(1): cached by refresh_view_pos() whenever the view changes.
  [[nodiscard]] int active_pos() const { return view_pos_; }
  void refresh_view_pos();
  /// True in elastic mode when the current epoch maps any cell of
  /// `region` to a different owner.
  [[nodiscard]] bool not_owner(const Box& region) const;
  /// No-op arm for messages this endpoint does not speak (spill traffic
  /// belongs to the gateway); keeps the Message visit exhaustive.
  sim::Task<void> ignore_message();

  /// The put state machine shared by single and batched puts: replay
  /// suppression, idempotent-duplicate detection, event logging, the store
  /// copy, log append, and redundancy encode/push. Pays every virtual-time
  /// cost except the per-request overhead (charged once per *message* by
  /// the caller).
  sim::Task<PutResponse> apply_put(AppId app, bool logged, Chunk chunk);

  /// Push redundancy fragments of a freshly applied chunk to peers and
  /// notify them of reclaimable older versions (detached).
  sim::Task<void> push_fragments(Chunk chunk, bool logged);
  sim::Task<void> mirror_event(wlog::LogEvent event);
  /// Rebuild state from peers (runs before the replacement serves traffic).
  sim::Task<void> rebuild_from_peers();
  /// The fragment-pull/decode/re-push half of rebuild_from_peers.
  sim::Task<void> rebuild_objects_from_peers();
  sim::Task<void> run_after_recovery();

  /// Soft-watermark maintenance (detached, single-flight): urgent GC sweep,
  /// then spill the coldest reclaim-ineligible log versions to the gateway
  /// until the governed footprint is back under the soft watermark.
  sim::Task<void> maintain_memory();
  /// Fault a spilled (var, version) back into the data log before a
  /// replay-path read (no-op when it is not spilled).
  sim::Task<void> ensure_log_resident(std::string var, Version version);
  [[nodiscard]] bool spill_covers(const std::string& var,
                                  Version version) const;
  /// Kick maintain_memory() if the governor is over its soft watermark —
  /// pooled, or any tenant over its fair share — and no maintenance pass
  /// is already in flight.
  void poke_governor();
  /// True when weighted fair-share is armed and some tenant's governed
  /// footprint exceeds its soft share (always false single-tenant, so the
  /// pooled paths are byte-identical with tenancy off).
  [[nodiscard]] bool any_tenant_over_share() const;
  /// Drop spilled-index entries the GC watermark has passed and tell the
  /// gateway to reclaim the corresponding spill files.
  void prune_spilled_upto_watermark();

  /// Serve a get whose data is present; pays response transport.
  sim::Task<void> respond_get(GetRequest req, std::vector<Chunk> pieces,
                              bool from_log);
  /// Re-check pending gets after a put made (var, version) more complete.
  void poke_pending(const std::string& var, Version version);

  [[nodiscard]] sim::Ctx ctx() { return cluster_->ctx_for(vproc_); }
  [[nodiscard]] sim::Duration copy_time(std::uint64_t bytes) const;
  void sample_memory();

  cluster::Cluster* cluster_;
  cluster::VprocId vproc_;
  ServerParams params_;
  net::Rpc rpc_;
  MemoryGovernor governor_;
  ObjectStore store_;
  wlog::DataLog dlog_;
  std::map<AppId, wlog::EventQueue> queues_;
  // app → tenant, learned from the tenant field every request carries.
  // Lets a tenant-scoped rollback drop only that tenant's replay queues.
  std::map<AppId, net::TenantId> app_tenants_;
  gc::GarbageCollector gc_;
  std::vector<GetRequest> pending_;
  std::uint64_t next_chk_id_ = 1;
  ServerStats stats_;
  // Resilience state. The endpoint list and membership view are shared
  // across the whole group (copy-on-write: apply_membership installs a
  // fresh vector rather than mutating in place).
  int self_index_ = 0;
  std::shared_ptr<const std::vector<net::EndpointId>> peer_endpoints_ =
      std::make_shared<std::vector<net::EndpointId>>();
  [[nodiscard]] const std::vector<net::EndpointId>& peers() const {
    return *peer_endpoints_;
  }
  // Elastic membership: the live placement index (null = elastic off) and
  // the last membership view applied. Redundancy fan-out follows the
  // active view; peer_endpoints_ keeps every server (standbys included)
  // addressable for recovery pulls.
  const dht::SpatialIndex* group_index_ = nullptr;
  std::uint64_t view_epoch_ = 0;
  std::shared_ptr<const std::vector<int>> active_view_ =
      std::make_shared<std::vector<int>>();  // ascending server ids
  [[nodiscard]] const std::vector<int>& view() const { return *active_view_; }
  int view_pos_ = -1;  // this server's index in *active_view_, or -1
  // owner → fragments held on that owner's behalf.
  std::map<int, std::vector<FragmentPut>> fragments_;
  std::uint64_t fragment_bytes_ = 0;
  // owner → app → mirrored event queue.
  std::map<int, std::map<AppId, wlog::EventQueue>> mirrors_;
  // Memory-governor state: gateway endpoint (-1 = none), the spill index
  // (var → version → nominal bytes evicted), and the single-flight latch
  // for the maintenance coroutine.
  net::EndpointId spill_endpoint_ = -1;
  std::map<std::string, std::map<Version, std::uint64_t>> spilled_;
  bool maintenance_inflight_ = false;
  bool placement_warned_ = false;
  bool budget_warned_ = false;
  // Memory sampling for peak / time-averaged usage.
  std::uint64_t peak_total_ = 0;
  double byte_seconds_ = 0;
  sim::TimePoint last_sample_{};
  std::uint64_t last_total_ = 0;
  // Event track. Requests are handled sequentially, so one "current
  // request" span id suffices for parenting child spans.
  obs::Track track_;
  obs::SpanId current_request_span_ = 0;
};

}  // namespace dstage::staging
