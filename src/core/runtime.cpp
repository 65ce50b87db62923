#include "core/runtime.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/multi_tenant.hpp"
#include "core/scheme/policy.hpp"
#include "staging/tenant.hpp"

namespace dstage::core {

int RuntimeServices::total_app_cores() const {
  return runtime->total_app_cores();
}

int RuntimeServices::tenant_app_cores(int tenant) const {
  int n = 0;
  for (const auto& c : *comps) {
    if (c->spec.tenant == tenant) n += c->spec.cores;
  }
  return n;
}

Runtime::Runtime(WorkflowSpec spec, const SchemePolicy& policy)
    : spec_(std::move(spec)),
      recorder_(engine_, spec_.recorder, spec_.obs),
      fabric_(engine_, spec_.fabric),
      cluster_(engine_, fabric_),
      pfs_(engine_, spec_.pfs),
      rng_(spec_.failures.seed) {
  build(policy);
}

Runtime::~Runtime() { teardown(); }

int Runtime::total_app_cores() const {
  int n = 0;
  for (const auto& c : comps_) n += c->spec.cores;
  return n;
}

Box Runtime::subset_region(double fraction) const {
  const auto ext = spec_.domain.extents();
  const auto dz = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(
             std::llround(fraction * static_cast<double>(ext[2]))));
  Box r = spec_.domain;
  r.hi.z = r.lo.z + std::min(dz, ext[2]) - 1;
  return r;
}

Comp* Runtime::comp_for_vproc(cluster::VprocId vproc) {
  for (auto& c : comps_) {
    if (c->vproc == vproc) return c.get();
  }
  return nullptr;
}

void Runtime::check_all_done() {
  for (const auto& c : comps_) {
    if (!c->done) return;
  }
  all_done_->set();
}

void Runtime::build(const SchemePolicy& policy) {
  cluster_.set_detection_delay(
      sim::from_seconds(spec_.costs.detection_delay_s));
  index_ = std::make_unique<dht::SpatialIndex>(
      spec_.domain, spec_.staging_servers, spec_.cells_per_axis);
  all_done_ = std::make_unique<sim::OneShotEvent>(engine_);

  // Staging servers: one vproc on its own node each. Elastic standbys are
  // built exactly like actives (same params, same registry) but start
  // outside the membership view; a JoinGroup admits them. With no standbys
  // this loop is byte-identical to the classic fixed-group build.
  staging::ServerParams server_params = spec_.server;
  server_params.logging = policy.uses_logging();
  server_params.governor = spec_.staging;
  server_params.log_codec = spec_.wlog.codec;
  const int total_servers =
      spec_.staging_servers + spec_.elastic.standby_servers;
  for (int s = 0; s < total_servers; ++s) {
    const auto node = cluster_.add_node();
    const std::string name = "staging-" + std::to_string(s);
    const auto vp = cluster_.add_vproc(name, node);
    server_vprocs_.push_back(vp);
    servers_.push_back(std::make_unique<staging::StagingServer>(
        cluster_, vp, server_params, recorder_.track(name)));
  }

  {
    // One shared endpoint list and one shared identity view for the whole
    // group: per-server copies are O(N²) bytes across a 100k-server run.
    auto server_endpoints =
        std::make_shared<std::vector<net::EndpointId>>();
    server_endpoints->reserve(server_vprocs_.size());
    for (auto vp : server_vprocs_)
      server_endpoints->push_back(cluster_.vproc(vp).endpoint);
    auto identity_view =
        std::make_shared<std::vector<int>>(server_vprocs_.size());
    for (std::size_t s = 0; s < identity_view->size(); ++s)
      (*identity_view)[s] = static_cast<int>(s);
    for (std::size_t s = 0; s < servers_.size(); ++s) {
      servers_[s]->set_peers(static_cast<int>(s), server_endpoints,
                             identity_view);
    }
  }

  // Application components: one actor vproc each.
  for (std::size_t i = 0; i < spec_.components.size(); ++i) {
    auto comp = std::make_unique<Comp>();
    comp->spec = spec_.components[i];
    comp->id = static_cast<staging::AppId>(i);
    comp->metrics.name = comp->spec.name;
    const auto node = cluster_.add_node();
    const int nodes_spanned =
        std::max(1, comp->spec.cores / spec_.costs.cores_per_node);
    fabric_.set_node_injection_bw(
        node, spec_.fabric.injection_bw * nodes_spanned);
    comp->vproc = cluster_.add_vproc(comp->spec.name, node);
    comp->track = recorder_.track(comp->spec.name);
    staging::ClientParams cp;
    cp.app = comp->id;
    cp.logged = policy.component_logged(comp->spec);
    cp.bytes_per_point = spec_.bytes_per_point;
    cp.mem_scale = spec_.mem_scale;
    cp.tenant = comp->spec.tenant;
    comp->client = std::make_unique<staging::StagingClient>(
        cluster_, *index_, server_vprocs_, comp->vproc, cp);
    comps_.push_back(std::move(comp));
  }

  // Control client (staging rollback broadcasts during coordinated restart).
  {
    const auto node = cluster_.add_node();
    control_vproc_ = cluster_.add_vproc("control", node);
    staging::ClientParams cp;
    cp.app = static_cast<staging::AppId>(comps_.size());
    cp.logged = false;
    control_client_ = std::make_unique<staging::StagingClient>(
        cluster_, *index_, server_vprocs_, control_vproc_, cp);
  }

  // PFS spill gateway, only when the memory governor is armed. Created
  // after every pre-existing vproc so governed-off runs keep their exact
  // endpoint/vproc numbering (the golden-trace digests depend on it).
  if (spec_.staging.memory_budget > 0) {
    const auto node = cluster_.add_node();
    spill_vproc_ = cluster_.add_vproc("spill-gw", node);
    spill_gateway_ = std::make_unique<staging::SpillGateway>(
        cluster_, spill_vproc_, pfs_, recorder_.track("spill-gw"));
    const auto ep = cluster_.vproc(spill_vproc_).endpoint;
    for (auto& server : servers_) server->set_spill_endpoint(ep);
  }

  // Elastic membership control plane. Created after every fixed vproc;
  // with the elastic block disabled (the default) none of this runs and
  // the build — and thus the golden-trace digests — is untouched.
  if (spec_.elastic.enabled()) {
    const auto node = cluster_.add_node();
    group_vproc_ = cluster_.add_vproc("group-mgr", node);
    std::vector<staging::StagingServer*> group_servers;
    group_servers.reserve(servers_.size());
    for (auto& server : servers_) group_servers.push_back(server.get());
    group_manager_ = std::make_unique<staging::GroupManager>(
        cluster_, group_vproc_, *index_, std::move(group_servers),
        recorder_.track("group-mgr"));
    for (auto& server : servers_) {
      server->set_group_index(index_.get());
      server->apply_membership(index_->active_servers());
    }
    const auto gep = group_manager_->endpoint();
    for (auto& comp : comps_) {
      comp->client->set_group_endpoint(gep);
      comp->client->set_resilience_policy(spec_.server.policy);
      comp->client->set_degraded_reads(spec_.elastic.degraded_reads);
    }
    control_client_->set_group_endpoint(gep);
    control_rpc_ = std::make_unique<net::Rpc>(
        fabric_, cluster_.vproc(control_vproc_).endpoint);
  }

  // Multi-level checkpoint hierarchy + async drain agent. Created after
  // every fixed vproc; with the hierarchy disabled (the default) none of
  // this runs, so endpoint/vproc numbering — and the golden digests — are
  // untouched.
  if (spec_.ckpt.hierarchy_enabled()) {
    ckpt_hierarchy_ =
        std::make_unique<ckpt::CheckpointHierarchy>(spec_.ckpt.xor_group);
    const auto node = cluster_.add_node();
    drain_vproc_ = cluster_.add_vproc("ckpt-drain", node);
    drain_agent_ = std::make_unique<ckpt::DrainAgent>(
        cluster_, drain_vproc_, pfs_, *ckpt_hierarchy_,
        recorder_.track("ckpt-drain"));
    std::vector<net::EndpointId> server_endpoints;
    server_endpoints.reserve(server_vprocs_.size());
    for (auto vp : server_vprocs_)
      server_endpoints.push_back(cluster_.vproc(vp).endpoint);
    drain_agent_->set_server_endpoints(std::move(server_endpoints));
    // Governor pressure probe: the worst (max) soft-watermark ratio across
    // the group. Always 0 with the governor off, so the drain never stalls.
    if (spec_.staging.memory_budget > 0) {
      const double soft =
          static_cast<double>(spec_.staging.memory_budget) *
          spec_.staging.soft_watermark;
      drain_agent_->set_pressure([this, soft]() {
        double worst = 0;
        for (const auto& server : servers_) {
          worst = std::max(
              worst, static_cast<double>(server->memory().governed()) / soft);
        }
        return worst;
      });
    }
    // A completed drain is the durable promotion: advance the component's
    // PFS anchor (node failures may now restart here) and stamp the trace.
    drain_agent_->set_on_complete([this](int app, int ts) {
      auto& comp = comps_[static_cast<std::size_t>(app)];
      comp->last_pfs_ckpt_ts = std::max(comp->last_pfs_ckpt_ts, ts);
      comp->track.emit(obs::Kind::kCkptDrainDone, ts, ts);
    });
  }

  // Variable registry for GC retention: consumers pin retention only when
  // they are rollback-capable. Registered under the tenant-namespaced key
  // — the name the servers actually store under — and coupling only binds
  // within a tenant, so each tenant's GC watermark is driven solely by its
  // own consumers' checkpoints. Tenant 0 keys are unprefixed (identity).
  for (const auto& producer : comps_) {
    for (const auto& write : producer->spec.writes) {
      std::vector<std::pair<staging::AppId, bool>> consumers;
      for (const auto& reader : comps_) {
        if (reader->spec.tenant != producer->spec.tenant) continue;
        for (const auto& read : reader->spec.reads) {
          if (read.var == write.var) {
            consumers.emplace_back(reader->id,
                                   policy.component_logged(reader->spec));
          }
        }
      }
      for (auto& server : servers_) {
        server->register_var(
            staging::tenant_key(producer->spec.tenant, write.var), consumers);
      }
    }
  }

  barrier_ = std::make_unique<sim::Barrier>(
      engine_, static_cast<int>(comps_.size()));
  // Tenant-private coordinated barriers: tenant A's checkpoint cut must
  // never wait on tenant B's components. Single-tenant runs build none and
  // barrier_for() falls back to the shared barrier above.
  if (spec_.tenancy.enabled()) {
    for (int t = 0; t < spec_.tenancy.tenants; ++t) {
      int members = 0;
      for (const auto& c : comps_) {
        if (c->spec.tenant == t) ++members;
      }
      tenant_barriers_.push_back(
          std::make_unique<sim::Barrier>(engine_, members));
    }
  }

  plan_failures();
}

void Runtime::plan_failures() {
  // Hand-specified schedules (the consistency campaign and its shrinker)
  // bypass the randomized planner entirely: the plan is the spec, verbatim.
  if (!spec_.failures.explicit_failures.empty()) {
    for (const auto& e : spec_.failures.explicit_failures) {
      PlannedFailure f;
      f.comp = e.comp;
      f.ts = e.ts;
      f.phase = e.phase;
      f.node_level = e.node_level;
      // A negative phase is the false-alarm sentinel; it only has an effect
      // when the predictor raises it.
      f.predicted = e.predicted || e.phase < 0;
      plan_.push_back(f);
    }
    return;
  }
  const int count = spec_.failures.count;
  const bool mtbf = count <= 0 && spec_.failures.mtbf_s > 0;
  if (count <= 0 && !mtbf && spec_.failures.predictor_false_alarms <= 0) {
    return;
  }
  std::vector<double> weights;
  weights.reserve(comps_.size());
  for (const auto& c : comps_)
    weights.push_back(static_cast<double>(c->spec.cores));
  for (int i = 0; i < count; ++i) {
    PlannedFailure f;
    f.comp = rng_.weighted_pick(weights);
    f.ts = rng_.uniform_int(1, spec_.total_ts);
    f.phase = rng_.next_double();
    f.node_level = rng_.next_double() < spec_.failures.node_failure_fraction;
    f.predicted = rng_.next_double() < spec_.failures.predictor_recall;
    plan_.push_back(f);
  }
  if (mtbf) {
    // Exponential arrivals with the configured MTBF, truncated to the
    // failure-free run-length estimate and mapped onto (timestep, phase)
    // using the slowest component's compute time as the timestep scale.
    double est_ts = 0;
    for (const auto& c : comps_)
      est_ts = std::max(est_ts, c->spec.compute_per_ts_s);
    if (est_ts <= 0) est_ts = 1.0;
    const double window = est_ts * spec_.total_ts;
    double t = 0;
    for (;;) {
      t += rng_.exponential(spec_.failures.mtbf_s);
      if (t >= window) break;
      PlannedFailure f;
      f.comp = rng_.weighted_pick(weights);
      const double pos = t / est_ts;
      f.ts = std::min(spec_.total_ts, 1 + static_cast<int>(pos));
      f.phase = pos - std::floor(pos);
      f.node_level =
          rng_.next_double() < spec_.failures.node_failure_fraction;
      f.predicted = rng_.next_double() < spec_.failures.predictor_recall;
      plan_.push_back(f);
    }
  }
  // Predictor false alarms: emergency checkpoints with no failure behind
  // them, modeled as predicted "failures" that never kill anything.
  for (int i = 0; i < spec_.failures.predictor_false_alarms; ++i) {
    PlannedFailure f;
    f.comp = rng_.weighted_pick(weights);
    f.ts = rng_.uniform_int(1, spec_.total_ts);
    f.predicted = true;
    f.fired = false;
    f.phase = -1;  // sentinel: alarm only, no kill
    plan_.push_back(f);
  }
}

sim::Task<staging::GroupChangeAck> Runtime::group_change_impl(sim::Ctx ctx,
                                                              bool join,
                                                              int server) {
  if (group_manager_ == nullptr || control_rpc_ == nullptr) {
    throw std::logic_error("group_change: elastic staging is not enabled");
  }
  const net::EndpointId dst = group_manager_->endpoint();
  if (join) {
    staging::JoinGroup req;
    req.server = server;
    co_return co_await control_rpc_->call(ctx, dst, std::move(req));
  }
  staging::RetireServer req;
  req.server = server;
  co_return co_await control_rpc_->call(ctx, dst, std::move(req));
}

RuntimeServices Runtime::services() {
  RuntimeServices rt;
  rt.spec = &spec_;
  rt.engine = &engine_;
  rt.cluster = &cluster_;
  rt.pfs = &pfs_;
  rt.index = index_.get();
  rt.comps = &comps_;
  rt.control_client = control_client_.get();
  rt.barrier = barrier_.get();
  for (const auto& b : tenant_barriers_) rt.tenant_barriers.push_back(b.get());
  rt.sys_token = &sys_token_;
  rt.runtime = this;
  rt.workflow = recorder_.track("workflow");
  rt.ckpt = ckpt_hierarchy_.get();
  if (drain_agent_ != nullptr) rt.ckpt_drain_ep = drain_agent_->endpoint();
  return rt;
}

RunMetrics Runtime::collect(int failures_injected) const {
  RunMetrics m;
  m.scheme = spec_.scheme;
  m.failures_injected = failures_injected;
  double total = 0;
  for (const auto& c : comps_) {
    total = std::max(total, c->metrics.completion_time_s);
    m.components.push_back(c->metrics);
  }
  m.total_time_s = total;
  for (const auto& server : servers_) {
    const auto& st = server->stats();
    m.staging.puts += st.puts;
    m.staging.gets += st.gets;
    m.staging.puts_suppressed += st.puts_suppressed;
    m.staging.gets_from_log += st.gets_from_log;
    m.staging.replay_mismatches += st.replay_mismatches;
    m.staging.gc_versions_dropped += st.gc_versions_dropped;
    m.staging.spilled_versions += st.spill_versions;
    m.staging.spilled_bytes += st.spill_bytes;
    m.staging.spill_fetches += st.spill_fetches;
    m.staging.spill_fetch_bytes += st.spill_fetch_bytes;
    m.staging.spills_aborted += st.spills_aborted;
    m.staging.urgent_gc_sweeps += st.urgent_gc_sweeps;
    m.staging.puts_rejected += st.puts_rejected;
    m.staging.governor_overruns += st.governor_overruns;
    m.staging.wrong_epoch_rejects += st.wrong_epoch_rejects;
    m.staging.fair_share_rejects += st.fair_share_rejects;
    for (net::TenantId t : server->store().tenants()) {
      m.staging.tenant_store_bytes_peak[t] +=
          server->store().peak_nominal_bytes(t);
    }
    m.staging.store_bytes_peak += server->store().peak_nominal_bytes();
    m.staging.log_payload_bytes_peak +=
        server->store().peak_nominal_bytes(staging::Holder::kLog);
    m.staging.total_bytes_peak += server->peak_total_bytes();
    m.staging.total_bytes_mean += server->mean_total_bytes();
    const wlog::CodecStats& cs = server->data_log().codec_stats();
    m.staging.codec_raw_bytes += cs.raw_bytes;
    m.staging.codec_stored_bytes += cs.stored_bytes;
    m.staging.codec_blocks += cs.blocks_encoded;
    m.staging.codec_delta_blocks += cs.delta_blocks;
  }
  m.pfs_bytes_written = pfs_.bytes_written();
  m.pfs_bytes_read = pfs_.bytes_read();
  m.events_processed = engine_.processed();
  m.vprocs = cluster_.vproc_count();
  m.fabric_packets = fabric_.packets_sent();
  m.fabric_bytes = fabric_.bytes_sent();
  for (const auto& c : comps_) {
    const net::RpcStats& rs = c->client->rpc_stats();
    m.rpc_retries += rs.retries;
    m.rpc_exhausted += rs.exhausted;
    m.rpc_backpressure_waits += rs.backpressure_waits;
    m.staging.degraded_reads += c->client->degraded_read_count();
  }
  if (group_manager_ != nullptr) {
    const staging::GroupManagerStats& gs = group_manager_->stats();
    m.staging.membership_epoch = index_->epoch();
    m.staging.membership_joins = gs.joins;
    m.staging.membership_retires = gs.retires;
    m.staging.resilver_chunks_moved = gs.resilver_chunks;
    m.staging.resilver_bytes_moved = gs.resilver_bytes;
    m.staging.resilver_time_s = gs.resilver_time_s;
  }
  if (ckpt_hierarchy_ != nullptr) {
    const ckpt::CkptStats& cs = ckpt_hierarchy_->stats();
    m.ckpt.sets_written = cs.sets_written;
    m.ckpt.sets_encoded = cs.sets_encoded;
    m.ckpt.drains_completed = cs.drains_completed;
    m.ckpt.cache_restarts = cs.cache_restarts;
    m.ckpt.partner_rebuilds = cs.partner_rebuilds;
    m.ckpt.pfs_restarts = cs.pfs_restarts;
    m.ckpt.cache_evictions = cs.cache_evictions;
    m.ckpt.blocks_lost = cs.blocks_lost;
    const ckpt::DrainAgentStats& ds = drain_agent_->stats();
    m.ckpt.drain_bytes = ds.drain_bytes;
    m.ckpt.pressure_stalls = ds.pressure_stalls;
    for (const auto& server : servers_) {
      m.ckpt.drain_promotions += server->stats().drain_promotions;
    }
  }
  return m;
}

void Runtime::finalize_obs() {
  recorder_.close_spans();
  const auto count = [this](std::string_view name, std::uint64_t n) {
    recorder_.count(name, {}, n);
  };
  // Facts below are exported only once their mechanism acted, so runs that
  // never sweep, govern, rebalance, spill or drain export an unchanged
  // metric set.
  const auto count_nonzero = [](const obs::Track& t, std::string_view name,
                                std::uint64_t n) {
    if (n > 0) t.count(name, n);
  };
  count("fabric.packets_sent", fabric_.packets_sent());
  count("fabric.bytes_sent", fabric_.bytes_sent());
  count("pfs.bytes_written", pfs_.bytes_written());
  count("pfs.bytes_read", pfs_.bytes_read());
  count("engine.events_processed", engine_.processed());
  count("dht.lookups", index_->lookups());
  for (const auto& c : comps_) {
    const net::RpcStats& rs = c->client->rpc_stats();
    count("rpc.calls", rs.calls);
    count("rpc.retries", rs.retries);
    count("rpc.exhausted", rs.exhausted);
    if (rs.backpressure_waits > 0)
      count("rpc.backpressure_waits", rs.backpressure_waits);
  }
  for (const auto& server : servers_) {
    const obs::Track& t = server->track();
    const staging::ServerStats& st = server->stats();
    t.count("staging.puts", st.puts);
    t.count("staging.gets", st.gets);
    t.count("staging.puts_suppressed", st.puts_suppressed);
    t.count("staging.gets_from_log", st.gets_from_log);
    t.count("staging.checkpoints", st.checkpoints);
    t.gauge("staging.peak_total_bytes",
            static_cast<double>(server->peak_total_bytes()));
    t.gauge("staging.mean_total_bytes", server->mean_total_bytes());
    count_nonzero(t, "gc.versions_dropped", st.gc_versions_dropped);
    count_nonzero(t, "gc.nominal_freed_bytes", st.gc_nominal_freed);
    count_nonzero(t, "governor.spill_versions", st.spill_versions);
    count_nonzero(t, "governor.spill_bytes", st.spill_bytes);
    count_nonzero(t, "governor.spill_fetches", st.spill_fetches);
    count_nonzero(t, "governor.spill_fetch_bytes", st.spill_fetch_bytes);
    count_nonzero(t, "governor.spills_aborted", st.spills_aborted);
    count_nonzero(t, "governor.urgent_sweeps", st.urgent_gc_sweeps);
    count_nonzero(t, "governor.puts_rejected", st.puts_rejected);
    count_nonzero(t, "governor.fair_share_rejects", st.fair_share_rejects);
    count_nonzero(t, "governor.overruns", st.governor_overruns);
    count_nonzero(t, "resilience.placement_clamped", st.placement_clamped);
    count_nonzero(t, "elastic.wrong_epoch", st.wrong_epoch_rejects);
    count_nonzero(t, "elastic.resilver_chunks_in", st.resilver_chunks_in);
    count_nonzero(t, "elastic.resilver_bytes_in", st.resilver_bytes_in);
    count_nonzero(t, "elastic.resilver_chunks_out", st.resilver_chunks_out);
    count_nonzero(t, "elastic.resilver_bytes_out", st.resilver_bytes_out);
  }
  // Elastic counters, only when the control plane exists, so classic runs
  // export an unchanged metric set.
  if (group_manager_ != nullptr) {
    const obs::Track& t = group_manager_->track();
    t.gauge("elastic.epoch", static_cast<double>(index_->epoch()));
    const staging::GroupManagerStats& gs = group_manager_->stats();
    count_nonzero(t, "elastic.membership_updates", gs.membership_updates);
    count_nonzero(t, "elastic.drain_sweeps", gs.drain_sweeps);
    count_nonzero(t, "elastic.resilver_chunks", gs.resilver_chunks);
    count_nonzero(t, "elastic.resilver_bytes", gs.resilver_bytes);
  }
  if (spill_gateway_ != nullptr) {
    const obs::Track& t = spill_gateway_->track();
    const staging::SpillGatewayStats& ss = spill_gateway_->stats();
    count_nonzero(t, "spill.chunks", ss.spill_puts);
    count_nonzero(t, "spill.bytes", ss.spill_bytes);
    count_nonzero(t, "spill.fetches", ss.fetches);
    count_nonzero(t, "spill.fetch_bytes", ss.fetch_bytes);
    count_nonzero(t, "spill.pruned_versions", ss.pruned_versions);
  }
  // Ckpt-hierarchy counters, only when the drain agent exists, so classic
  // runs export an unchanged metric set.
  if (drain_agent_ != nullptr) {
    const obs::Track& t = drain_agent_->track();
    const ckpt::CkptStats& cs = ckpt_hierarchy_->stats();
    count_nonzero(t, "ckpt.sets_written", cs.sets_written);
    count_nonzero(t, "ckpt.cache_restarts", cs.cache_restarts);
    count_nonzero(t, "ckpt.partner_rebuilds", cs.partner_rebuilds);
    count_nonzero(t, "ckpt.pfs_restarts", cs.pfs_restarts);
    count_nonzero(t, "ckpt.drains", cs.drains_completed);
    const ckpt::DrainAgentStats& ds = drain_agent_->stats();
    count_nonzero(t, "ckpt.store_notices", ds.store_notices);
    count_nonzero(t, "ckpt.shards_encoded", ds.shards_encoded);
    count_nonzero(t, "ckpt.pressure_stalls", ds.pressure_stalls);
    count_nonzero(t, "ckpt.drain_bytes", ds.drain_bytes);
  }
}

void Runtime::teardown() {
  if (torn_down_) return;
  torn_down_ = true;
  sys_token_.cancel();
  for (auto& c : comps_) {
    if (cluster_.vproc(c->vproc).alive) cluster_.kill(c->vproc);
  }
  for (auto vp : server_vprocs_) {
    if (cluster_.vproc(vp).alive) cluster_.kill(vp);
  }
  if (spill_vproc_ >= 0 && cluster_.vproc(spill_vproc_).alive) {
    cluster_.kill(spill_vproc_);
  }
  if (group_vproc_ >= 0 && cluster_.vproc(group_vproc_).alive) {
    cluster_.kill(group_vproc_);
  }
  if (drain_vproc_ >= 0 && cluster_.vproc(drain_vproc_).alive) {
    cluster_.kill(drain_vproc_);
  }
  engine_.run();
}

std::unique_ptr<Runtime> RuntimeBuilder::build() {
  if (policy_ == nullptr)
    throw std::logic_error("RuntimeBuilder: no scheme policy set");
  // Clone the component graph per tenant (no-op for single-tenant specs
  // and for specs a caller already pre-expanded to tweak clones).
  expand_tenants(spec_);
  spec_.validate();
  return std::make_unique<Runtime>(std::move(spec_), *policy_);
}

}  // namespace dstage::core
