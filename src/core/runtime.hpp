// Runtime layer: owns every subsystem a workflow run needs — the DES
// engine, fabric, virtual cluster, PFS, spatial index, staging servers and
// per-component clients — and arms the failure plan. RuntimeBuilder
// validates a WorkflowSpec and assembles a Runtime; RuntimeServices is the
// borrowed view handed to scheme policies and the recovery pipeline, so
// protocol code never reaches into the orchestrator.
//
// One Runtime is one self-contained simulation: independent Runtimes share
// no mutable state, which is what makes multi-seed sweeps (core/sweep.hpp)
// embarrassingly parallel.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "ckpt/drain.hpp"
#include "ckpt/hierarchy.hpp"
#include "cluster/cluster.hpp"
#include "cluster/pfs.hpp"
#include "core/workflow.hpp"
#include "dht/spatial_index.hpp"
#include "net/fabric.hpp"
#include "obs/recorder.hpp"
#include "sim/engine.hpp"
#include "sim/event.hpp"
#include "staging/client.hpp"
#include "staging/group.hpp"
#include "staging/server.hpp"
#include "staging/spill_gateway.hpp"
#include "util/rng.hpp"

namespace dstage::core {

class SchemePolicy;
class Runtime;

/// One instantiated application component: its spec, its actor vproc, its
/// staging client, and the checkpoint/progress state the protocol tracks.
struct Comp {
  ComponentSpec spec;
  staging::AppId id = -1;
  cluster::VprocId vproc = -1;
  std::unique_ptr<staging::StagingClient> client;
  int current_ts = 0;        // last fully completed timestep
  int last_ckpt_ts = 0;      // freshest restartable checkpoint (any level;
                             // equals last_pfs_ckpt_ts with the hierarchy off)
  int last_pfs_ckpt_ts = 0;  // freshest PFS-level checkpoint
  bool done = false;
  bool recovering = false;
  ComponentMetrics metrics;
  /// This component's event track (named after the component).
  obs::Track track;
  // Open observability spans (0 = none).
  obs::SpanId obs_recovery_span = 0;  // root span of the in-flight recovery
  obs::SpanId obs_detect_span = 0;    // its "detect" child
};

/// One entry of the pre-drawn failure plan.
struct PlannedFailure {
  int comp = 0;
  int ts = 1;
  double phase = 0.5;       // fraction of the timestep's compute before death
  bool node_level = false;  // node failure: its cached ckpt blocks are lost
  bool predicted = false;   // the failure predictor flagged it in advance
  bool fired = false;
};

/// Borrowed view over a Runtime's subsystems plus the orchestrator hooks a
/// policy needs to restart component actors. Cheap to copy; valid for the
/// lifetime of the Runtime it came from.
struct RuntimeServices {
  const WorkflowSpec* spec = nullptr;
  sim::Engine* engine = nullptr;
  cluster::Cluster* cluster = nullptr;
  cluster::Pfs* pfs = nullptr;
  dht::SpatialIndex* index = nullptr;
  std::vector<std::unique_ptr<Comp>>* comps = nullptr;
  staging::StagingClient* control_client = nullptr;
  sim::Barrier* barrier = nullptr;  // coordinated checkpoint barrier
  /// Per-tenant coordinated barriers, one per tenant, sized to that
  /// tenant's component count. Empty for single-tenant runs — barrier_for()
  /// then returns the classic shared `barrier`, so tenancy-off coordinated
  /// runs are byte-identical.
  std::vector<sim::Barrier*> tenant_barriers;
  sim::CancelToken* sys_token = nullptr;
  Runtime* runtime = nullptr;
  /// Run-wide event track ("workflow"): the coordinated restart's events
  /// and spans. Per-component events go through Comp::track.
  obs::Track workflow;
  /// Multi-level checkpoint hierarchy; null unless
  /// spec.ckpt.hierarchy_enabled(). Schemes route checkpoints through it
  /// and the recovery pipeline restores from the fastest complete level.
  ckpt::CheckpointHierarchy* ckpt = nullptr;
  /// Drain-agent endpoint for ckpt_announce traffic (-1 = hierarchy off).
  net::EndpointId ckpt_drain_ep = -1;

  // Orchestrator hooks, installed by the executor before run():
  /// Respawn a component's timestep loop, resuming after `start_ts`.
  std::function<void(Comp*, int start_ts)> resume;
  /// Run the Fig. 7(b) re-attach (+ replay) stage in the component's own
  /// process context, then resume its loop from its restored checkpoint.
  std::function<void(Comp*)> resume_recovered;
  /// Launch `task` (a recovery pipeline) as a process acting for `comp`.
  /// Its first error, a kill's sim::Cancelled excepted, is kept: a run
  /// left unfinished reports it by component name, not as a deadlock.
  std::function<void(Comp*, sim::Task<void>)> spawn;

  /// Context for system activities that survive component kills.
  [[nodiscard]] sim::Ctx system_ctx() const { return {engine, sys_token}; }
  [[nodiscard]] int total_app_cores() const;
  /// Cores of `tenant`'s components only (== total_app_cores() for
  /// single-tenant specs, where every component is tenant 0).
  [[nodiscard]] int tenant_app_cores(int tenant) const;
  /// The coordinated barrier `tenant`'s components synchronize on: the
  /// tenant-private barrier under multi-tenancy, the classic shared one
  /// otherwise.
  [[nodiscard]] sim::Barrier* barrier_for(int tenant) const {
    if (tenant_barriers.empty()) return barrier;
    return tenant_barriers[static_cast<std::size_t>(tenant)];
  }
};

/// Owns the full simulated deployment for one workflow run.
class Runtime {
 public:
  /// Prefer RuntimeBuilder; the policy supplies the logging flags wired
  /// into servers, clients, and the GC retention registry.
  Runtime(WorkflowSpec spec, const SchemePolicy& policy);
  ~Runtime();
  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  [[nodiscard]] const WorkflowSpec& spec() const { return spec_; }
  [[nodiscard]] sim::Engine& engine() { return engine_; }
  [[nodiscard]] cluster::Cluster& cluster() { return cluster_; }
  [[nodiscard]] cluster::Pfs& pfs() { return pfs_; }
  [[nodiscard]] obs::Trace& trace() { return recorder_.trace(); }
  [[nodiscard]] const obs::Trace& trace() const { return recorder_.trace(); }
  [[nodiscard]] std::vector<std::unique_ptr<Comp>>& comps() { return comps_; }
  [[nodiscard]] std::vector<std::unique_ptr<staging::StagingServer>>&
  servers() {
    return servers_;
  }
  [[nodiscard]] int server_count() const {
    return static_cast<int>(servers_.size());
  }
  [[nodiscard]] std::vector<PlannedFailure>& plan() { return plan_; }
  [[nodiscard]] sim::OneShotEvent& all_done() { return *all_done_; }
  /// Span tracer + metrics registry; null unless spec.obs.enabled.
  [[nodiscard]] obs::Observability* obs() { return recorder_.obs(); }
  [[nodiscard]] const obs::Observability* obs() const {
    return recorder_.obs();
  }
  /// The run's event recorder: digest trace, flight-recorder rings, and
  /// (obs on) spans and metrics.
  [[nodiscard]] obs::Recorder& recorder() { return recorder_; }
  [[nodiscard]] const obs::Recorder& recorder() const { return recorder_; }
  /// PFS spill gateway for memory-governed runs; null when the governor is
  /// disabled (spec.staging.memory_budget == 0, the default).
  [[nodiscard]] staging::SpillGateway* spill_gateway() {
    return spill_gateway_.get();
  }
  [[nodiscard]] const staging::SpillGateway* spill_gateway() const {
    return spill_gateway_.get();
  }
  /// Elastic membership control plane; null unless spec.elastic.enabled().
  [[nodiscard]] staging::GroupManager* group_manager() {
    return group_manager_.get();
  }
  [[nodiscard]] const staging::GroupManager* group_manager() const {
    return group_manager_.get();
  }
  /// Multi-level checkpoint hierarchy; null unless
  /// spec.ckpt.hierarchy_enabled().
  [[nodiscard]] ckpt::CheckpointHierarchy* ckpt_hierarchy() {
    return ckpt_hierarchy_.get();
  }
  [[nodiscard]] const ckpt::CheckpointHierarchy* ckpt_hierarchy() const {
    return ckpt_hierarchy_.get();
  }
  /// Async PFS drain agent; null unless the hierarchy is enabled.
  [[nodiscard]] ckpt::DrainAgent* drain_agent() { return drain_agent_.get(); }
  [[nodiscard]] const ckpt::DrainAgent* drain_agent() const {
    return drain_agent_.get();
  }

  /// Issue a membership change (join = admit a standby, otherwise retire an
  /// active server; server == -1 lets the GroupManager pick) and wait for
  /// the rebalance — including the background resilver — to complete.
  /// Throws std::logic_error when elastic staging is not enabled. Plain
  /// shim over a private coroutine (GCC 12 coroutine-parameter caveat).
  sim::Task<staging::GroupChangeAck> group_change(sim::Ctx ctx, bool join,
                                                  int server = -1) {
    return group_change_impl(ctx, join, server);
  }

  /// Subsystem view with unset orchestrator hooks.
  [[nodiscard]] RuntimeServices services();

  [[nodiscard]] int total_app_cores() const;
  /// Case-1 subsets: the written/read fraction of the global domain.
  [[nodiscard]] Box subset_region(double fraction) const;
  [[nodiscard]] Comp* comp_for_vproc(cluster::VprocId vproc);
  /// Sets all_done once every component has finished.
  void check_all_done();
  /// Aggregate per-component, staging, PFS, and engine metrics.
  [[nodiscard]] RunMetrics collect(int failures_injected) const;
  /// Close any spans still open at end of run and export the final
  /// fabric/PFS/server/engine counters and gauges — every fact a *Stats
  /// struct keeps is exported here, once. No-op when obs is off; called by
  /// WorkflowRunner after the engine drains.
  void finalize_obs();
  /// Unwind every suspended actor so coroutine frames are reclaimed.
  /// Idempotent; also run by the destructor.
  void teardown();

 private:
  void build(const SchemePolicy& policy);
  void plan_failures();
  sim::Task<staging::GroupChangeAck> group_change_impl(sim::Ctx ctx,
                                                       bool join, int server);

  WorkflowSpec spec_;
  sim::Engine engine_;
  obs::Recorder recorder_;
  net::Fabric fabric_;
  cluster::Cluster cluster_;
  cluster::Pfs pfs_;
  std::unique_ptr<dht::SpatialIndex> index_;
  std::vector<std::unique_ptr<staging::StagingServer>> servers_;
  std::vector<cluster::VprocId> server_vprocs_;
  std::vector<std::unique_ptr<Comp>> comps_;
  std::unique_ptr<sim::Barrier> barrier_;  // coordinated checkpoint barrier
  /// Tenant-private coordinated barriers (empty unless tenancy.enabled()).
  std::vector<std::unique_ptr<sim::Barrier>> tenant_barriers_;
  std::unique_ptr<sim::OneShotEvent> all_done_;
  std::unique_ptr<staging::StagingClient> control_client_;
  cluster::VprocId control_vproc_ = -1;
  std::unique_ptr<staging::SpillGateway> spill_gateway_;
  cluster::VprocId spill_vproc_ = -1;
  std::unique_ptr<staging::GroupManager> group_manager_;
  cluster::VprocId group_vproc_ = -1;
  std::unique_ptr<ckpt::CheckpointHierarchy> ckpt_hierarchy_;
  std::unique_ptr<ckpt::DrainAgent> drain_agent_;
  cluster::VprocId drain_vproc_ = -1;
  /// Control-plane transport for group_change(); shares the control
  /// client's endpoint (replies are fulfilled through their ReplyPtr, not
  /// the endpoint mailbox, so two Rpc instances coexist safely).
  std::unique_ptr<net::Rpc> control_rpc_;
  sim::CancelToken sys_token_;
  std::vector<PlannedFailure> plan_;
  Rng rng_;
  bool torn_down_ = false;
};

/// Front door: validates the spec (WorkflowSpec::validate()) and assembles
/// the Runtime with the scheme policy's logging flags applied.
class RuntimeBuilder {
 public:
  explicit RuntimeBuilder(WorkflowSpec spec) : spec_(std::move(spec)) {}

  /// The scheme policy whose logging predicates configure servers, clients
  /// and GC retention. Required before build().
  RuntimeBuilder& policy(const SchemePolicy& p) {
    policy_ = &p;
    return *this;
  }

  [[nodiscard]] std::unique_ptr<Runtime> build();

 private:
  WorkflowSpec spec_;
  const SchemePolicy* policy_ = nullptr;
};

}  // namespace dstage::core
