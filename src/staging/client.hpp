// Staging client: the application-side half of the Global User Interface
// (Table 1 of the paper). Geometric puts/gets are sharded across servers by
// the spatial DHT and issued in parallel; workflow_check()/workflow_restart()
// broadcast checkpoint and recovery events to every server. All traffic
// flows through the typed net::Rpc transport, which owns the
// timeout/retry/backoff loop.
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/cluster.hpp"
#include "dht/spatial_index.hpp"
#include "net/rpc.hpp"
#include "resilience/policy.hpp"
#include "staging/types.hpp"

namespace dstage::staging {

struct ClientParams {
  AppId app = 0;
  /// Issue requests with data logging (the *_with_log interface). Plain
  /// DataSpaces semantics when false.
  bool logged = true;
  /// Nominal payload size per grid point.
  double bytes_per_point = 8.0;
  /// Physical payloads are nominal / mem_scale (floor 16 B) so paper-scale
  /// runs fit in RAM while virtual-time costs use nominal sizes.
  std::uint64_t mem_scale = 4096;
  /// Cost of (re)building RDMA connections to all servers on restart.
  sim::Duration reconnect_cost = sim::milliseconds(50);
  /// RPC retry timeouts; zero disables retries (the default — coupling
  /// reads legitimately block for long stretches). Enable when staging
  /// servers can fail so requests lost in a crash are re-sent to the
  /// recovered replacement.
  sim::Duration put_timeout{0};
  sim::Duration get_timeout{0};
  int max_retries = 6;
  /// Initial retry backoff, doubled per attempt (0 = immediate re-send,
  /// the historical behavior).
  sim::Duration retry_backoff{0};
  /// Tenant this client acts for. Every variable name is namespaced through
  /// tenant_key() before it reaches the DHT or a server, and every request
  /// carries the tenant so servers can scope admission and rollback. The
  /// default tenant (0) leaves names — and all traffic — byte-identical to
  /// the single-tenant build.
  net::TenantId tenant = 0;
};

/// A put returns only once every piece is admitted: the transport waits out
/// a memory-governed server's RetryLater bounces per piece (net::Rpc), and
/// the client re-places wrong_epoch bounces. So the ack means durable.
struct PutResult {
  sim::Duration response_time{};
  std::uint64_t nominal_bytes = 0;  // of the admitted pieces
  std::size_t pieces = 0;           // admitted pieces (one message each)
  std::size_t suppressed = 0;  // pieces recognized as replay duplicates
  /// Pieces bounced with wrong_epoch and re-placed against a refreshed
  /// membership view (elastic mode only).
  std::size_t wrong_epoch_retries = 0;
};

/// Aggregated version metadata across the staging group.
struct QueryResult {
  /// Versions some server still holds in its base window (union).
  std::vector<Version> available;
  /// Versions every contacted server retains in its data log
  /// (intersection — i.e. fully replayable versions).
  std::vector<Version> fully_logged;
};

struct GetResult {
  sim::Duration response_time{};
  std::uint64_t nominal_bytes = 0;
  std::vector<Chunk> pieces;
  int wrong_version = 0;  // Fig.-2 anomaly: stale/newer version observed
  int corrupt = 0;
  bool any_from_log = false;
  /// Pieces re-placed after a wrong_epoch bounce (elastic mode only).
  std::size_t wrong_epoch_retries = 0;
  /// Pieces served by reconstructing redundancy fragments off surviving
  /// peers because the owner was down or mid-resilver.
  std::size_t degraded_pieces = 0;
};

class StagingClient {
 public:
  StagingClient(cluster::Cluster& cluster, const dht::SpatialIndex& index,
                std::vector<cluster::VprocId> servers,
                cluster::VprocId self, ClientParams params);

  // put()/get() are plain shims over private coroutines. GCC 12 coroutines
  // double-destroy prvalue argument temporaries in co_await expressions, so
  // the shims take only trivially-destructible parameter types
  // (string_view, Box) and materialize the owned string inside the shim,
  // moving it (an xvalue, which is safe) into the coroutine. A put or get
  // sends one request per piece through one Rpc::call_all: one frame for
  // the whole fan-out, one slot per piece.

  /// dspaces_put_with_log(): write (var, version, region); the payload is
  /// synthesized deterministically so consumers can verify it.
  sim::Task<PutResult> put(sim::Ctx ctx, std::string_view var,
                           Version version, Box region) {
    std::string owned(var);
    return put_impl(ctx, std::move(owned), version, region);
  }

  /// dspaces_get_with_log(): read (var, version, region); blocks until the
  /// data is available; verifies every returned piece.
  sim::Task<GetResult> get(sim::Ctx ctx, std::string_view var,
                           Version version, Box region) {
    std::string owned(var);
    return get_impl(ctx, std::move(owned), version, region);
  }

  /// workflow_check(): notify every staging server of a checkpoint event at
  /// timestep `version`. Returns the highest assigned W_Chk_ID. Pass
  /// `durable = false` for a checkpoint a node failure can wipe (a
  /// checkpoint-hierarchy cache set before its drain): the marker still
  /// anchors replay, but must not advance the staging GC watermark.
  sim::Task<std::uint64_t> workflow_check(sim::Ctx ctx, Version version,
                                          bool durable = true);

  /// Multi-level checkpointing: announce a freshly cached checkpoint set to
  /// the drain agent — the level-1 store notification followed by the
  /// level-2 XOR parity share (whose `parity_bytes` really travel to the
  /// partner group). Both are one-way: hierarchy state was updated
  /// synchronously by the scheme layer, so restart correctness never waits
  /// on these messages.
  sim::Task<void> ckpt_announce(sim::Ctx ctx, Version version,
                                std::uint64_t parity_bytes,
                                net::EndpointId drain_ep);

  /// workflow_restart(): re-initialize the client after recovery (RDMA
  /// reconnect) and notify servers; returns the total number of logged
  /// events the servers will replay.
  sim::Task<std::size_t> workflow_restart(sim::Ctx ctx,
                                          Version restored_version);

  /// Coordinated-restart support: roll the staging state itself back.
  /// `tenant < 0` (the pre-multi-tenant default) rolls back every tenant's
  /// state; `tenant >= 0` scopes the wipe to that tenant's namespace so one
  /// workflow's coordinated restart never truncates a co-resident tenant.
  sim::Task<void> rollback_staging(sim::Ctx ctx, Version version,
                                   net::TenantId tenant = -1);

  /// dspaces_query-style metadata lookup: which versions of `var` are
  /// currently available / fully logged across the staging group.
  sim::Task<QueryResult> query(sim::Ctx ctx, std::string_view var) {
    std::string owned(var);
    return query_impl(ctx, std::move(owned));
  }

  /// Install a probe reporting whether a staging server is in degraded
  /// (failed, never recovered) state. When set, requests
  /// to such a server fail fast — and retry-exhausted requests re-surface —
  /// as a distinct "staging degraded" error instead of a generic rpc
  /// timeout, so callers can tell unrecoverable loss from transient stalls.
  /// The check runs in the transport (the Rpc's peer check) when each
  /// put or get call starts, so a fan-out still sends to every other
  /// server before the error surfaces. Workflow broadcasts do not fail
  /// fast.
  void set_degraded_probe(std::function<bool(int)> probe);

  /// Elastic membership: point the client at the GroupManager's endpoint.
  /// Non-negative enables elastic mode — gets also route through the cached
  /// membership view, workflow broadcasts follow the live active set, and a
  /// typed wrong_epoch reject triggers a MembershipQuery refresh plus
  /// re-placement of only the bounced pieces.
  void set_group_endpoint(net::EndpointId ep) { group_ep_ = ep; }
  [[nodiscard]] bool elastic() const { return group_ep_ >= 0; }

  /// The group's resilience policy, needed to reconstruct degraded reads
  /// from redundancy fragments (replica pick or RS decode).
  void set_resilience_policy(resilience::ResiliencePolicy policy) {
    policy_ = policy;
  }
  /// Enable fragment-reconstruction reads when a fragment owner is down or
  /// mid-resilver (requires a redundancy policy and elastic mode). A read
  /// whose losses exceed the policy's tolerance throws DataLossError.
  void set_degraded_reads(bool on) { degraded_reads_ = on; }

  [[nodiscard]] std::uint64_t degraded_read_count() const {
    return degraded_read_count_;
  }
  [[nodiscard]] std::uint64_t epoch_refreshes() const {
    return epoch_refreshes_;
  }

  [[nodiscard]] AppId app() const { return params_.app; }
  [[nodiscard]] const ClientParams& params() const { return params_; }
  [[nodiscard]] std::uint64_t puts_issued() const { return puts_issued_; }
  [[nodiscard]] std::uint64_t gets_issued() const { return gets_issued_; }
  /// Transport-level counters (calls, retries, exhausted attempts).
  [[nodiscard]] const net::RpcStats& rpc_stats() const {
    return rpc_.stats();
  }

 private:
  [[nodiscard]] net::EndpointId server_endpoint(int server) const;
  [[nodiscard]] net::RetryPolicy put_policy() const {
    return {params_.put_timeout, params_.max_retries, params_.retry_backoff};
  }
  [[nodiscard]] net::RetryPolicy get_policy() const {
    return {params_.get_timeout, params_.max_retries, params_.retry_backoff};
  }

  sim::Task<PutResult> put_impl(sim::Ctx ctx, std::string var,
                                Version version, Box region);
  sim::Task<QueryResult> query_impl(sim::Ctx ctx, std::string var);
  /// One get loop for fixed and elastic groups: placement through the
  /// cached view, a bounded wrong_epoch refresh/re-place loop, and the
  /// degraded fragment-reconstruction fallback.
  sim::Task<GetResult> get_impl(sim::Ctx ctx, std::string var,
                                Version version, Box region);
  [[nodiscard]] net::Addressed<PutRequest> put_request(int server,
                                                       Chunk chunk) const;
  [[nodiscard]] net::Addressed<GetRequest> get_request(int server,
                                                       ObjectDesc desc) const;
  /// Throws the distinct degraded error when the probe reports `server`
  /// unrecovered; otherwise returns.
  void fail_if_degraded(int server) const;
  /// Whether a get piece that failed with `error` is read from redundancy
  /// fragments instead: elastic degraded reads are on, the group keeps
  /// redundancy, and the piece's server ran degraded when the call failed
  /// (the peer check raised StagingDegradedError).
  [[nodiscard]] bool reads_degraded(const std::exception_ptr& error) const;
  /// Degraded read: broadcast FragmentFetch to the surviving peers of
  /// `owner`, reconstruct `piece`, and pay the decode cost.
  sim::Task<std::vector<Chunk>> degraded_fetch(sim::Ctx ctx, int owner,
                                               std::string var,
                                               Version version, Box piece);
  /// Fetch the current membership view from the GroupManager and re-snapshot
  /// the placement map.
  sim::Task<void> refresh_view(sim::Ctx ctx);
  void ensure_view();
  /// Broadcast targets for workflow events: the active membership view
  /// (every server, in index order, for a fixed group). Returned by value:
  /// callers co_await inside the loop while membership may change.
  [[nodiscard]] std::vector<int> fanout_targets() const;

  cluster::Cluster* cluster_;
  const dht::SpatialIndex* index_;
  std::vector<cluster::VprocId> servers_;
  cluster::VprocId self_;
  ClientParams params_;
  net::Rpc rpc_;
  std::function<bool(int)> degraded_probe_;
  std::uint64_t puts_issued_ = 0;
  std::uint64_t gets_issued_ = 0;
  // Placement snapshot every put routes through (one per client unless a
  // wrong_epoch bounce refreshes it).
  dht::PlacementView view_;
  // Elastic membership state (inert unless set_group_endpoint is called).
  net::EndpointId group_ep_ = -1;
  resilience::ResiliencePolicy policy_;
  bool degraded_reads_ = false;
  std::uint64_t degraded_read_count_ = 0;
  std::uint64_t epoch_refreshes_ = 0;
};

}  // namespace dstage::staging
