#include "staging/server.hpp"

#include <algorithm>
#include <cstdio>
#include <set>
#include <tuple>
#include <utility>
#include <variant>

#include "resilience/reed_solomon.hpp"
#include "sim/spawn.hpp"
#include "staging/tenant.hpp"

namespace dstage::staging {

namespace {
/// Exhaustive-visit helper: adding a Message alternative without a matching
/// handler lambda is a compile error.
template <class... Ts>
struct Overloaded : Ts... {
  using Ts::operator()...;
};
template <class... Ts>
Overloaded(Ts...) -> Overloaded<Ts...>;
}  // namespace

StagingServer::StagingServer(cluster::Cluster& cluster,
                             cluster::VprocId vproc, ServerParams params,
                             obs::Track track)
    : cluster_(&cluster),
      vproc_(vproc),
      params_(params),
      rpc_(cluster.fabric(), cluster.vproc(vproc).endpoint),
      governor_(params.governor),
      store_(params.version_window),
      track_(track) {
  dlog_.set_codec(params.log_codec);
}

net::EndpointId StagingServer::endpoint() const {
  return cluster_->vproc(vproc_).endpoint;
}

sim::Duration StagingServer::copy_time(std::uint64_t bytes) const {
  return sim::from_seconds(static_cast<double>(bytes) / params_.mem_bw);
}

MemoryReport StagingServer::memory() const {
  MemoryReport r;
  r.store_bytes = store_.nominal_bytes();
  r.log_payload_bytes = dlog_.nominal_bytes();
  for (const auto& [app, q] : queues_) r.log_metadata_bytes += q.metadata_bytes();
  r.redundancy_bytes = fragment_bytes_;
  return r;
}

void StagingServer::sample_memory() {
  const sim::TimePoint now = cluster_->engine().now();
  byte_seconds_ +=
      static_cast<double>(last_total_) * (now - last_sample_).seconds();
  last_sample_ = now;
  const MemoryReport mem = memory();
  last_total_ = mem.total();
  peak_total_ = std::max(peak_total_, last_total_);
  if (governor_.enabled()) {
    // Gauges merge by max, so the final registry reports peak pressure.
    track_.gauge("governor.pressure", governor_.pressure(mem.governed()));
  }
}

double StagingServer::mean_total_bytes() const {
  const double elapsed = last_sample_.seconds();
  return elapsed > 0 ? byte_seconds_ / elapsed
                     : static_cast<double>(last_total_);
}

void StagingServer::set_peers(
    int self_index,
    std::shared_ptr<const std::vector<net::EndpointId>> endpoints,
    std::shared_ptr<const std::vector<int>> initial_view) {
  self_index_ = self_index;
  peer_endpoints_ = std::move(endpoints);
  if (initial_view != nullptr) {
    active_view_ = std::move(initial_view);
  } else {
    // Default membership view: every peer is active. Elastic runs
    // overwrite this via apply_membership / MembershipUpdate; non-elastic
    // runs keep it, which makes the view-based fan-out below
    // byte-identical to the old index-over-all-peers loops.
    auto identity = std::make_shared<std::vector<int>>(peers().size());
    for (std::size_t s = 0; s < identity->size(); ++s)
      (*identity)[s] = static_cast<int>(s);
    active_view_ = std::move(identity);
  }
  refresh_view_pos();
}

void StagingServer::apply_membership(std::uint64_t epoch,
                                     std::vector<int> active) {
  view_epoch_ = epoch;
  active_view_ = std::make_shared<const std::vector<int>>(std::move(active));
  refresh_view_pos();
}

void StagingServer::refresh_view_pos() {
  // O(1) when the server sits at its own index, as in the identity view
  // every non-elastic run keeps; a scan otherwise.
  const auto self = static_cast<std::size_t>(self_index_);
  if (self_index_ >= 0 && self < view().size() && view()[self] == self_index_) {
    view_pos_ = self_index_;
    return;
  }
  const auto it = std::find(view().begin(), view().end(), self_index_);
  view_pos_ = it == view().end() ? -1 : static_cast<int>(it - view().begin());
}

bool StagingServer::not_owner(const Box& region) const {
  return group_index_ != nullptr &&
         group_index_->sole_owner(region) != self_index_;
}

void StagingServer::start() {
  sim::spawn(cluster_->engine(), run());
}

void StagingServer::start_with_recovery() {
  sim::spawn(cluster_->engine(), run_after_recovery());
}

sim::Task<void> StagingServer::run_after_recovery() {
  co_await rebuild_from_peers();
  co_await run();
}

sim::Task<void> StagingServer::run() {
  auto& ep = cluster_->fabric().endpoint(endpoint());
  sim::Ctx c = ctx();
  for (;;) {
    net::Packet packet = co_await ep.recv(c.tok);
    co_await handle(std::move(packet.payload));
    sample_memory();
  }
}

sim::Task<void> StagingServer::handle(Request request) {
  current_request_span_ =
      track_.begin(net::message_name(request), obs::Phase::kOther);
  track_.count("staging.requests");
  co_await std::visit(
      Overloaded{
          [this](PutRequest&& m) { return handle_put(std::move(m)); },
          [this](GetRequest&& m) { return handle_get(std::move(m)); },
          [this](CheckpointEvent&& m) {
            return handle_checkpoint(std::move(m));
          },
          [this](RecoveryEvent&& m) { return handle_recovery(std::move(m)); },
          [this](RollbackRequest&& m) { return handle_rollback(std::move(m)); },
          [this](FragmentPut&& m) { return handle_fragment_put(std::move(m)); },
          [this](FragmentPrune&& m) {
            return handle_fragment_prune(std::move(m));
          },
          [this](QueueBackup&& m) { return handle_queue_backup(std::move(m)); },
          [this](RecoveryPull&& m) {
            return handle_recovery_pull(std::move(m));
          },
          [this](QueryRequest&& m) { return handle_query(std::move(m)); },
          [this](BatchPut&& m) { return handle_batch_put(std::move(m)); },
          // Spill traffic is addressed to the gateway endpoint; a server
          // receiving it means a routing bug, and dropping is the safe
          // answer (the sender's reply slot times out loudly).
          [this](SpillPut&&) { return ignore_message(); },
          [this](SpillFetch&&) { return ignore_message(); },
          [this](SpillPrune&&) { return ignore_message(); },
          // Group-membership control verbs belong to the GroupManager;
          // servers only consume the resulting view updates and the
          // resilver/degraded-read data traffic.
          [this](JoinGroup&&) { return ignore_message(); },
          [this](RetireServer&&) { return ignore_message(); },
          [this](MembershipQuery&&) { return ignore_message(); },
          [this](MembershipUpdate&& m) {
            return handle_membership_update(std::move(m));
          },
          [this](FragmentFetch&& m) {
            return handle_fragment_fetch(std::move(m));
          },
          [this](ResilverPut&& m) {
            return handle_resilver_put(std::move(m));
          },
          // Level-1/2 checkpoint announcements belong to the drain agent;
          // a server only consumes the final durable promotion.
          [this](CkptStoreLocal&&) { return ignore_message(); },
          [this](CkptXorShard&&) { return ignore_message(); },
          [this](CkptDrainAck&& m) {
            return handle_ckpt_drain_ack(std::move(m));
          },
      },
      std::move(request));
  track_.end(current_request_span_);
  current_request_span_ = 0;
}

sim::Task<PutResponse> StagingServer::apply_put(AppId app, bool logged,
                                                Chunk chunk) {
  sim::Ctx c = ctx();
  ++stats_.puts;

  PutResponse resp;

  // Elastic ownership gate, before any state is touched: a put placed
  // against a stale membership view must leave no trace here — the client
  // refreshes its view and re-places against the current epoch.
  if (not_owner(chunk.region)) {
    ++stats_.wrong_epoch_rejects;
    track_.emit(obs::Kind::kPutBounce, chunk.var,
                static_cast<std::int64_t>(chunk.version),
                static_cast<std::int64_t>(group_index_->epoch()));
    resp.wrong_epoch = true;
    resp.epoch = group_index_->epoch();
    co_return resp;
  }

  bool apply = true;

  if (params_.logging && logged) {
    auto& q = queues_[app];
    if (q.replaying()) {
      const wlog::LogEvent* expected = q.expected();
      if (expected != nullptr && expected->kind == wlog::EventKind::kPut &&
          expected->var == chunk.var && expected->version == chunk.version &&
          expected->region == chunk.region) {
        // Redundant write from a rolled-back producer: the payload is
        // already staged/logged, so the write request is omitted.
        q.advance();
        apply = false;
        resp.suppressed = true;
        ++stats_.puts_suppressed;
      } else {
        ++stats_.replay_mismatches;  // diverged replay: apply as fresh
      }
    }
    if (apply) {
      // Client retries are idempotent: an identical chunk already staged is
      // acknowledged without re-applying or re-logging.
      auto existing = store_.get(chunk.var, chunk.version, chunk.region);
      if (existing.size() == 1 && existing[0].region == chunk.region &&
          existing[0].content_key == chunk.content_key) {
        apply = false;
        resp.applied = true;
      }
    }
  }

  // Memory-governor admission: decided before the event is recorded, so a
  // rejected put leaves no trace anywhere (no replay-script entry, no
  // bytes) — the client's re-send is a genuinely fresh request.
  if (apply && governor_.enabled()) {
    const std::uint64_t incoming =
        chunk.nominal_bytes *
        (params_.logging && logged ? 2u : 1u);  // store copy + log retention
    switch (governor_.admit(memory().governed(), incoming)) {
      case MemoryGovernor::Admission::kAdmit:
        break;
      case MemoryGovernor::Admission::kAdmitOverrun:
        ++stats_.governor_overruns;
        break;
      case MemoryGovernor::Admission::kReject:
        ++stats_.puts_rejected;
        track_.emit(obs::Kind::kPutReject, chunk.var,
                    static_cast<std::int64_t>(chunk.version),
                    static_cast<std::int64_t>(chunk.nominal_bytes));
        resp.applied = false;
        resp.retry_later = true;
        poke_governor();  // make sure relief is under way before the retry
        co_return resp;
    }
    // Weighted fair-share: a put that fits the pooled budget must also fit
    // its own tenant's share, so a hoarding tenant's backlog bounces only
    // that tenant's writers — co-resident tenants keep their full shares.
    if (governor_.fair_share()) {
      const net::TenantId tenant = tenant_of(chunk.var);
      switch (governor_.admit_tenant(tenant, governed_bytes(tenant),
                                     incoming)) {
        case MemoryGovernor::Admission::kAdmit:
          break;
        case MemoryGovernor::Admission::kAdmitOverrun:
          ++stats_.governor_overruns;
          break;
        case MemoryGovernor::Admission::kReject:
          ++stats_.puts_rejected;
          ++stats_.fair_share_rejects;
          track_.emit(obs::Kind::kPutReject, chunk.var,
                      static_cast<std::int64_t>(chunk.version),
                      static_cast<std::int64_t>(chunk.nominal_bytes));
          resp.applied = false;
          resp.retry_later = true;
          poke_governor();
          co_return resp;
      }
    }
  }

  if (apply && params_.logging && logged) {
    co_await c.delay(params_.log_event_overhead);
    wlog::LogEvent event{wlog::EventKind::kPut, app,
                         chunk.version,         chunk.var,
                         chunk.region,          chunk.nominal_bytes,
                         0};
    queues_[app].record(event);
    sim::spawn(cluster_->engine(), mirror_event(std::move(event)));
  }

  if (apply) {
    co_await c.delay(copy_time(chunk.nominal_bytes));
    if (params_.logging && logged) {
      // Log append: the data log retains the payload for replay (buffer
      // shared with the base store; the cost is version/index bookkeeping).
      co_await c.delay(
          sim::from_seconds(copy_time(chunk.nominal_bytes).seconds() *
                            params_.log_append_fraction));
      dlog_.add(chunk);
    }
    const std::string var = chunk.var;
    const Version version = chunk.version;
    track_.emit(obs::Kind::kPutAdmit, var, static_cast<std::int64_t>(version),
                static_cast<std::int64_t>(chunk.nominal_bytes));
    if (params_.policy.kind != resilience::Redundancy::kNone) {
      co_await c.delay(params_.policy.encode_time(chunk.nominal_bytes));
      const bool was_logged = params_.logging && logged;
      sim::spawn(cluster_->engine(), push_fragments(chunk, was_logged));
    }
    store_.put(std::move(chunk));
    resp.applied = true;
    poke_pending(var, version);
    poke_governor();  // the footprint just grew; spill if over the soft mark
  }
  co_return resp;
}

sim::Task<void> StagingServer::handle_put(PutRequest req) {
  sim::Ctx c = ctx();
  co_await c.delay(params_.request_overhead);
  app_tenants_[req.app] = req.tenant;
  PutResponse resp = co_await apply_put(req.app, req.logged,
                                        std::move(req.chunk));
  co_await rpc_.fulfill(c, req.reply_to, std::move(req.reply), resp);
}

sim::Task<void> StagingServer::handle_batch_put(BatchPut req) {
  sim::Ctx c = ctx();
  co_await c.delay(params_.request_overhead);
  app_tenants_[req.app] = req.tenant;
  ++stats_.batch_puts;
  BatchPutResponse resp;
  resp.results.reserve(req.chunks.size());
  // The chunks are applied sequentially — the same server-side pipeline a
  // sequence of single puts runs through — but the fabric charged the
  // message overhead only once, and the response below acks all of them.
  for (Chunk& chunk : req.chunks) {
    resp.results.push_back(
        co_await apply_put(req.app, req.logged, std::move(chunk)));
  }
  co_await rpc_.fulfill(c, req.reply_to, std::move(req.reply),
                        std::move(resp));
}

sim::Task<void> StagingServer::handle_get(GetRequest req) {
  sim::Ctx c = ctx();
  co_await c.delay(params_.request_overhead);
  app_tenants_[req.app] = req.tenant;
  ++stats_.gets;

  // Elastic ownership gate: the cell moved — tell the reader to re-place
  // rather than parking a request no local put will ever satisfy.
  if (not_owner(req.desc.region)) {
    ++stats_.wrong_epoch_rejects;
    track_.emit(obs::Kind::kGetBounce, req.desc.var,
                static_cast<std::int64_t>(req.desc.version),
                static_cast<std::int64_t>(group_index_->epoch()));
    GetResponse resp;
    resp.wrong_epoch = true;
    resp.epoch = group_index_->epoch();
    co_await rpc_.fulfill(c, req.reply_to, std::move(req.reply),
                          std::move(resp));
    co_return;
  }

  if (params_.logging && req.logged) {
    auto& q = queues_[req.app];
    if (q.replaying()) {
      const wlog::LogEvent* expected = q.expected();
      // The version is part of the match, exactly as for puts: after a
      // fallback restart from a checkpoint older than the replay anchor
      // (node failure wiping a node-local checkpoint), the app re-reads
      // versions from before the script — matching on var/region alone
      // would serve the script's newer version for those reads.
      if (expected != nullptr && expected->kind == wlog::EventKind::kGet &&
          expected->var == req.desc.var &&
          expected->version == req.desc.version &&
          expected->region == req.desc.region) {
        // Serve the version observed during the initial execution.
        const Version logged_version = expected->version;
        q.advance();
        // The replayed version may have been spilled to the PFS under
        // memory pressure: fault it back into the log first.
        co_await ensure_log_resident(req.desc.var, logged_version);
        std::vector<Chunk> pieces =
            dlog_.get(req.desc.var, logged_version, req.desc.region);
        if (pieces.empty() ||
            !dlog_.covers(req.desc.var, logged_version, req.desc.region)) {
          pieces = store_.get(req.desc.var, logged_version, req.desc.region);
        }
        ++stats_.gets_from_log;
        sim::spawn(cluster_->engine(),
                   respond_get(std::move(req), std::move(pieces), true));
        co_return;
      }
      ++stats_.replay_mismatches;  // fall through as a fresh request
    }
  }

  if (store_.covers(req.desc.var, req.desc.version, req.desc.region)) {
    if (params_.logging && req.logged) {
      co_await c.delay(params_.log_event_overhead);
      wlog::LogEvent event{wlog::EventKind::kGet, req.app, req.desc.version,
                           req.desc.var, req.desc.region, 0, 0};
      queues_[req.app].record(event);
      sim::spawn(cluster_->engine(), mirror_event(std::move(event)));
    }
    auto pieces = store_.get(req.desc.var, req.desc.version, req.desc.region);
    sim::spawn(cluster_->engine(),
               respond_get(std::move(req), std::move(pieces), false));
    co_return;
  }
  if (params_.logging && req.logged &&
      (dlog_.covers(req.desc.var, req.desc.version, req.desc.region) ||
       spill_covers(req.desc.var, req.desc.version))) {
    // Version already rotated out of the base window but still retained in
    // the log (slow consumer) — or spilled to the PFS, in which case the
    // read-through below faults it back in first.
    co_await ensure_log_resident(req.desc.var, req.desc.version);
    co_await c.delay(params_.log_event_overhead);
    wlog::LogEvent levent{wlog::EventKind::kGet, req.app, req.desc.version,
                          req.desc.var, req.desc.region, 0, 0};
    queues_[req.app].record(levent);
    sim::spawn(cluster_->engine(), mirror_event(std::move(levent)));
    auto pieces = dlog_.get(req.desc.var, req.desc.version, req.desc.region);
    ++stats_.gets_from_log;
    sim::spawn(cluster_->engine(),
               respond_get(std::move(req), std::move(pieces), true));
    co_return;
  }

  // Without logging, a request for an already-superseded version is
  // answered with the newest available data — exactly the Fig.-2 case-1
  // anomaly that individual checkpoint/restart exhibits and the data log
  // exists to prevent. (Consumers detect it via content keys.)
  if (!(params_.logging && req.logged)) {
    const auto latest = store_.latest(req.desc.var);
    if (latest && *latest > req.desc.version &&
        store_.covers(req.desc.var, *latest, req.desc.region)) {
      // Wrong-version serve: the forensic smoking gun for the Fig.-2
      // anomaly — recorded with the version actually substituted.
      track_.emit(obs::Kind::kGetAnomaly, req.desc.var,
                  static_cast<std::int64_t>(req.desc.version),
                  static_cast<std::int64_t>(*latest));
      auto pieces = store_.get(req.desc.var, *latest, req.desc.region);
      sim::spawn(cluster_->engine(),
                 respond_get(std::move(req), std::move(pieces), false));
      co_return;
    }
  }

  // Data not yet produced: park the request until a covering put arrives
  // (DataSpaces-style blocking get).
  ++stats_.gets_pending;
  pending_.push_back(std::move(req));
}

// Runs detached from the request loop: the gather copy and the NIC DMA of
// the response overlap with subsequent request processing, as with real
// RDMA; concurrent responses still serialize on the node's NIC resource.
sim::Task<void> StagingServer::respond_get(GetRequest req,
                                           std::vector<Chunk> pieces,
                                           bool from_log) {
  GetResponse resp;
  resp.found = !pieces.empty();
  resp.from_log = from_log;
  resp.pieces = std::move(pieces);
  const std::uint64_t bytes = net::wire_size(resp);
  co_await ctx().delay(copy_time(bytes));  // gather/pack on the server
  co_await rpc_.fulfill(ctx(), req.reply_to, std::move(req.reply),
                        std::move(resp));
}

void StagingServer::poke_pending(const std::string& var, Version version) {
  for (std::size_t i = 0; i < pending_.size();) {
    GetRequest& req = pending_[i];
    // Exact-version match always serves; a non-logged request parked on an
    // older version is unblocked by any newer covering write (and will
    // observe the wrong-version anomaly).
    const bool exact = req.desc.version == version;
    const bool superseded = !(params_.logging && req.logged) &&
                            req.desc.version < version;
    if (req.desc.var == var && (exact || superseded) &&
        store_.covers(var, version, req.desc.region)) {
      GetRequest ready = std::move(req);
      pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(i));
      if (params_.logging && ready.logged) {
        wlog::LogEvent event{wlog::EventKind::kGet, ready.app,
                             ready.desc.version, ready.desc.var,
                             ready.desc.region, 0, 0};
        queues_[ready.app].record(event);
        sim::spawn(cluster_->engine(), mirror_event(std::move(event)));
      }
      // `version` (not desc.version) so superseded requests observe the
      // newer data.
      auto pieces = store_.get(ready.desc.var, version, ready.desc.region);
      sim::spawn(cluster_->engine(),
                 respond_get(std::move(ready), std::move(pieces), false));
    } else {
      ++i;
    }
  }
}

sim::Task<void> StagingServer::handle_checkpoint(CheckpointEvent ev) {
  sim::Ctx c = ctx();
  co_await c.delay(params_.request_overhead);
  app_tenants_[ev.app] = ev.tenant;
  ++stats_.checkpoints;

  // Watermark diffing for the gc-watermark events: snapshot before the
  // checkpoint is applied, compare after.
  std::vector<std::pair<std::string, Version>> pre_watermarks;
  if (ev.durable) pre_watermarks = watermarks();

  CheckpointAck ack;
  ack.chk_id = next_chk_id_++;
  // Only durable checkpoints move the watermark: a non-durable level
  // (node-local, emergency) is wiped by a node failure, whose recovery
  // falls back to the last durable checkpoint and must still be able to
  // replay every logged version above it.
  if (ev.durable) gc_.on_checkpoint(ev.app, ev.version);
  emit_watermark_advances(pre_watermarks);

  if (params_.logging) {
    auto& q = queues_[ev.app];
    wlog::LogEvent marker{wlog::EventKind::kCheckpoint, ev.app, ev.version,
                          {}, Box{}, 0, ack.chk_id};
    q.record(marker);
    sim::spawn(cluster_->engine(), mirror_event(std::move(marker)));
    // End of a checkpoint cycle: clean the event queue. The marker is
    // recorded for every level — it anchors the replay script for a
    // restart from this checkpoint — but payload reclamation below only
    // runs when the watermark may actually have advanced.
    const std::size_t events_dropped = q.truncate_before_last_checkpoint();
    track_.emit(obs::Kind::kLogTruncate,
                static_cast<std::int64_t>(events_dropped));
    track_.count("wlog.events_truncated", events_dropped);
  }
  if (params_.logging && ev.durable) {
    co_await sweep_after_durable();
  }

  co_await rpc_.fulfill(c, ev.reply_to, std::move(ev.reply), ack);
}

sim::Task<void> StagingServer::sweep_after_durable() {
  sim::Ctx c = ctx();
  const obs::SpanId sweep_span =
      track_.begin("gc sweep", obs::Phase::kOther, current_request_span_);
  const gc::SweepResult sweep = gc_.sweep(dlog_);
  stats_.gc_versions_dropped += sweep.versions_dropped;
  stats_.gc_nominal_freed += sweep.nominal_freed;
  co_await c.delay(params_.gc_cost_per_entry *
                   static_cast<std::int64_t>(sweep.entries_scanned + 1));
  track_.end(sweep_span);
  track_.emit(obs::Kind::kGcSweep,
              static_cast<std::int64_t>(sweep.entries_scanned),
              static_cast<std::int64_t>(sweep.nominal_freed));
  track_.count("gc.sweeps");
  track_.count("gc.entries_scanned", sweep.entries_scanned);
  // Spilled versions the watermark has now passed are as unreachable as
  // swept log versions: retire their PFS spill files too.
  prune_spilled_upto_watermark();
  // Peers can reclaim fragments that neither the log's retention nor the
  // base store's window still needs. The fan-out follows the membership
  // view: retired standbys hold no fragments worth pruning.
  if (params_.policy.kind != resilience::Redundancy::kNone &&
      view().size() > 1) {
    for (const std::string& var : store_.variables()) {
      const auto store_versions = store_.versions_of(var);
      const Version oldest_store =
          store_versions.empty() ? 0 : store_versions.front();
      const auto log_versions = dlog_.versions_of(var);
      const Version oldest_log =
          log_versions.empty() ? oldest_store : log_versions.front();
      const Version keep_from = std::min(oldest_store, oldest_log);
      if (keep_from == 0) continue;
      for (int p : view()) {
        if (p == self_index_) continue;
        sim::Ctx sc = ctx();
        net::Message prune{FragmentPrune{self_index_, var, keep_from - 1}};
        sim::spawn(cluster_->engine(),
                   rpc_.send(sc,
                             peers()[static_cast<std::size_t>(p)],
                             std::move(prune)));
      }
    }
  }
}

sim::Task<void> StagingServer::handle_ckpt_drain_ack(CkptDrainAck ack) {
  sim::Ctx c = ctx();
  co_await c.delay(params_.request_overhead);
  ++stats_.drain_promotions;
  track_.emit(obs::Kind::kDrainAck, std::to_string(ack.app),
              static_cast<std::int64_t>(ack.version));

  const std::vector<std::pair<std::string, Version>> pre_watermarks =
      watermarks();
  // The async drain completed: the cached set at `version` is durable now,
  // which is exactly what lets the GC watermark advance. No queue marker is
  // recorded here — the non-durable CheckpointEvent taken when the set was
  // cached already anchors the replay script at this timestep.
  gc_.on_checkpoint(ack.app, ack.version);
  emit_watermark_advances(pre_watermarks);
  if (params_.logging) co_await sweep_after_durable();
}

std::vector<std::pair<std::string, Version>> StagingServer::watermarks()
    const {
  std::vector<std::pair<std::string, Version>> out;
  for (const std::string& var : gc_.variables()) {
    out.emplace_back(var, gc_.watermark(var));
  }
  return out;
}

void StagingServer::emit_watermark_advances(
    const std::vector<std::pair<std::string, Version>>& before) {
  for (const auto& [var, from] : before) {
    const Version to = gc_.watermark(var);
    if (to <= from) continue;
    track_.emit(obs::Kind::kGcWatermark, var, static_cast<std::int64_t>(to));
    track_.count("gc.watermark_advances");
  }
}

sim::Task<void> StagingServer::handle_recovery(RecoveryEvent ev) {
  sim::Ctx c = ctx();
  co_await c.delay(params_.request_overhead);
  app_tenants_[ev.app] = ev.tenant;
  ++stats_.recoveries;

  RecoveryAck ack;
  if (params_.logging) {
    auto& q = queues_[ev.app];
    q.record(wlog::LogEvent{wlog::EventKind::kRecovery, ev.app,
                            ev.restored_version, {}, Box{}, 0, 0});
    ack.replay_events = q.begin_replay();
  }
  co_await rpc_.fulfill(c, ev.reply_to, std::move(ev.reply), ack);
}

sim::Task<void> StagingServer::handle_rollback(RollbackRequest req) {
  sim::Ctx c = ctx();
  co_await c.delay(params_.request_overhead);

  // Tenant scoping: a coordinated restart of one workflow (req.tenant >= 0)
  // must drop only that tenant's namespace. A co-resident tenant's store
  // window, log retention, spill files, replay queues and parked gets are
  // invariantly untouched — its GC watermarks and durability never move
  // because someone else rolled back. The default (-1) is the global wipe
  // every pre-multi-tenant caller gets, byte-identical to the old path.
  const net::TenantId tenant = req.tenant;
  const auto in_scope = [tenant](const std::string& var) {
    return tenant < 0 || tenant_of(var) == tenant;
  };

  RollbackAck ack;
  ack.versions_dropped = store_.drop_versions_above(req.version, in_scope);
  dlog_.drop_above(req.version, in_scope);
  // Spilled versions newer than the snapshot are rolled back with the log:
  // drop the index entries and have the gateway discard the spill files.
  if (!spilled_.empty()) {
    for (auto vit = spilled_.begin(); vit != spilled_.end();) {
      if (!in_scope(vit->first)) {
        ++vit;
        continue;
      }
      auto& versions = vit->second;
      versions.erase(versions.upper_bound(req.version), versions.end());
      vit = versions.empty() ? spilled_.erase(vit) : std::next(vit);
    }
    if (spill_endpoint_ >= 0) {
      sim::Ctx sc = ctx();
      net::Message prune{SpillPrune{self_index_, std::string{}, req.version,
                                    true, tenant}};
      sim::spawn(cluster_->engine(),
                 rpc_.send(sc, spill_endpoint_, std::move(prune)));
    }
  }
  if (tenant < 0) {
    queues_.clear();
  } else {
    std::erase_if(queues_, [&](const auto& entry) {
      const auto it = app_tenants_.find(entry.first);
      return it != app_tenants_.end() && it->second == tenant;
    });
  }
  // Parked gets for discarded versions belong to rolled-back clients.
  std::erase_if(pending_, [&](const GetRequest& g) {
    return in_scope(g.desc.var) && g.desc.version > req.version;
  });

  co_await rpc_.fulfill(c, req.reply_to, std::move(req.reply), ack);
}

sim::Task<void> StagingServer::handle_fragment_put(FragmentPut frag) {
  if (group_index_ != nullptr) {
    // Elastic runs re-push fragments during resilver and retirement
    // hand-off; an identical fragment already held must not be counted
    // twice (durability accounting would overstate redundancy).
    for (const FragmentPut& held : fragments_[frag.owner]) {
      if (held.var == frag.var && held.version == frag.version &&
          held.frag_index == frag.frag_index &&
          held.region == frag.region) {
        ++stats_.fragments_deduped;
        co_return;
      }
    }
  }
  fragment_bytes_ += frag.nominal_bytes;
  ++stats_.fragments_held;
  fragments_[frag.owner].push_back(std::move(frag));
  co_return;
}

sim::Task<void> StagingServer::handle_fragment_prune(FragmentPrune prune) {
  auto it = fragments_.find(prune.owner);
  if (it == fragments_.end()) co_return;
  std::erase_if(it->second, [&](const FragmentPut& f) {
    const bool drop = f.var == prune.var && f.version <= prune.upto;
    if (drop) fragment_bytes_ -= f.nominal_bytes;
    return drop;
  });
  co_return;
}

sim::Task<void> StagingServer::handle_queue_backup(QueueBackup backup) {
  ++stats_.mirrored_events;
  auto& q = mirrors_[backup.owner][backup.record.app];
  const bool checkpoint =
      backup.record.kind == wlog::EventKind::kCheckpoint;
  q.record(std::move(backup.record));
  if (checkpoint) q.truncate_before_last_checkpoint();
  co_return;
}

sim::Task<void> StagingServer::handle_recovery_pull(RecoveryPull pull) {
  sim::Ctx c = ctx();
  co_await c.delay(params_.request_overhead);
  RecoveryPullResponse resp;
  if (auto it = fragments_.find(pull.owner); it != fragments_.end()) {
    resp.fragments = it->second;
  }
  if (auto it = mirrors_.find(pull.owner); it != mirrors_.end()) {
    for (const auto& [app, queue] : it->second) {
      for (const wlog::LogEvent& e : queue.events()) {
        resp.events.push_back(QueueBackup{pull.owner, e});
      }
    }
  }
  const std::uint64_t bytes = net::wire_size(resp);
  co_await c.delay(copy_time(bytes));
  co_await rpc_.fulfill(c, pull.reply_to, std::move(pull.reply),
                        std::move(resp));
}

sim::Task<void> StagingServer::handle_query(QueryRequest query) {
  sim::Ctx c = ctx();
  co_await c.delay(params_.request_overhead);
  QueryResponse resp;
  resp.store_versions = store_.versions_of(query.var);
  resp.logged_versions = dlog_.versions_of(query.var);
  // Spilled versions are still logically retained by the log — they are
  // just parked on the PFS — so metadata queries report them.
  if (auto it = spilled_.find(query.var); it != spilled_.end()) {
    for (const auto& [version, bytes] : it->second)
      resp.logged_versions.push_back(version);
    std::sort(resp.logged_versions.begin(), resp.logged_versions.end());
    resp.logged_versions.erase(std::unique(resp.logged_versions.begin(),
                                           resp.logged_versions.end()),
                               resp.logged_versions.end());
  }
  co_await rpc_.fulfill(c, query.reply_to, std::move(query.reply),
                        std::move(resp));
}

sim::Task<void> StagingServer::mirror_event(wlog::LogEvent event) {
  // Successor in the membership view (identical to the old index-order
  // successor while every peer is active). A retired standby generates no
  // events worth mirroring.
  if (view().size() < 2) co_return;
  const int pos = active_pos();
  if (pos < 0) co_return;
  const auto successor = static_cast<std::size_t>(
      view()[(static_cast<std::size_t>(pos) + 1) %
                   view().size()]);
  net::Message backup{QueueBackup{self_index_, std::move(event)}};
  co_await rpc_.send(ctx(), peers()[successor], std::move(backup));
}

sim::Task<void> StagingServer::push_fragments(Chunk chunk, bool logged) {
  // Fragment placement round-robins over the *active* membership view, so
  // joins widen the fan-out and retiring servers stop receiving new
  // fragments. With every peer active this reduces to the old
  // index-arithmetic placement exactly.
  const int group = static_cast<int>(view().size());
  if (group < 2 || active_pos() < 0) co_return;
  sim::Ctx c = ctx();
  ++stats_.fragments_pushed;

  // The round-robin below wraps when the policy's fan-out exceeds the
  // group: several fragments of one object land on the same peer, so the
  // policy's nominal max_losses() overstates survivability. The push still
  // proceeds (single-failure tolerance holds: the owner's loss leaves all
  // pushed fragments intact), but the degradation is loud — once on
  // stderr, and per push in stats/metrics.
  if (params_.policy.fragments_total() > group) {
    ++stats_.placement_clamped;
    if (!placement_warned_) {
      placement_warned_ = true;
      std::fprintf(stderr,
                   "dstage: staging-%d: resilience policy wants %d distinct "
                   "fragment holders but the group has %d servers; placement "
                   "wraps and survivability is degraded\n",
                   self_index_, params_.policy.fragments_total(), group);
    }
  }

  // Round-robin over the *other* active servers only: a fragment stored on
  // its own owner would die with it. The view is re-read for every pick —
  // a membership update may land while an earlier fragment is in flight,
  // and a retire shrinks the view under this loop. -1 once this server has
  // left the view or the group is too small to hold a fragment.
  auto pick_peer = [this](int frag_index) -> int {
    const int n = static_cast<int>(view().size());
    const int pos = active_pos();
    if (n < 2 || pos < 0) return -1;
    return view()[static_cast<std::size_t>(
        (pos + 1 + (frag_index - 1) % (n - 1)) % n)];
  };
  auto push_one = [&](int peer, int frag_index, std::uint64_t nominal,
                      std::shared_ptr<const std::vector<std::uint8_t>> data)
      -> sim::Task<void> {
    net::Message frag{FragmentPut{self_index_,       chunk.var,
                                  chunk.version,     chunk.region,
                                  frag_index,        nominal,
                                  chunk.data ? chunk.data->size() : 0,
                                  chunk.content_key, logged,
                                  std::move(data)}};
    return rpc_.send(c, peers()[static_cast<std::size_t>(peer)],
                     std::move(frag));
  };

  if (params_.policy.kind == resilience::Redundancy::kReplication) {
    // Full copies on the next replicas-1 peers.
    for (int j = 1; j < params_.policy.replicas &&
                    j < static_cast<int>(view().size());
         ++j) {
      const int peer = pick_peer(j);
      if (peer < 0) co_return;
      co_await push_one(peer, j, chunk.nominal_bytes, chunk.data);
    }
    co_return;
  }

  // Erasure coding: the owner keeps the full payload (fast local reads) and
  // spreads all k+m shards of it across the following peers, so the loss of
  // this server leaves k-1+m >= k survivors for reconstruction.
  const resilience::ReedSolomon rs(params_.policy.rs_k, params_.policy.rs_m);
  std::vector<resilience::Shard> shards;
  if (chunk.data) {
    shards = rs.encode(*chunk.data);
  }
  const std::uint64_t shard_nominal =
      chunk.nominal_bytes / static_cast<std::uint64_t>(params_.policy.rs_k);
  for (int j = 1; j < rs.total_shards(); ++j) {
    std::shared_ptr<const std::vector<std::uint8_t>> data;
    if (!shards.empty()) {
      data = std::make_shared<std::vector<std::uint8_t>>(
          std::move(shards[static_cast<std::size_t>(j)]));
    }
    const int peer = pick_peer(j);
    if (peer < 0) co_return;
    co_await push_one(peer, j, shard_nominal, std::move(data));
  }
}

sim::Task<void> StagingServer::rebuild_from_peers() {
  const int total_servers = static_cast<int>(peers().size());
  if (total_servers >= 2 &&
      params_.policy.kind != resilience::Redundancy::kNone) {
    co_await rebuild_objects_from_peers();
  }
  // The spill gateway outlived the failed incarnation: ask it what it still
  // holds on our behalf (a descriptor-only inventory) and rebuild the
  // spill index, so replay-path reads keep faulting those versions in.
  // Versions the fragment rebuild already restored to the log stay local.
  if (governor_.enabled() && spill_endpoint_ >= 0) {
    sim::Ctx c = ctx();
    SpillFetch fetch;
    fetch.owner = self_index_;
    fetch.index_only = true;
    SpillFetchResponse inventory =
        co_await rpc_.call(c, spill_endpoint_, std::move(fetch));
    for (const Chunk& chunk : inventory.chunks) {
      if (dlog_.has(chunk.var, chunk.version)) continue;
      spilled_[chunk.var][chunk.version] += chunk.accounted_bytes();
    }
  }
}

sim::Task<void> StagingServer::rebuild_objects_from_peers() {
  sim::Ctx c = ctx();
  const int total_servers = static_cast<int>(peers().size());

  // Pull everything our peers hold on our behalf.
  std::vector<sim::Task<RecoveryPullResponse>> pulls;
  for (int p = 0; p < total_servers; ++p) {
    if (p == self_index_) continue;
    RecoveryPull pull;
    pull.owner = self_index_;
    pulls.push_back(
        rpc_.call(c, peers()[static_cast<std::size_t>(p)],
                  std::move(pull)));
  }
  auto responses = co_await sim::when_all(c, std::move(pulls));

  // Group fragments by object; replay mirrored queue events in order (the
  // single successor mirror preserves per-app ordering).
  struct Key {
    std::string var;
    Version version;
    std::uint64_t region;
    bool operator<(const Key& o) const {
      return std::tie(var, version, region) <
             std::tie(o.var, o.version, o.region);
    }
  };
  std::map<Key, std::vector<FragmentPut>> objects;
  for (auto& resp : responses) {
    for (FragmentPut& f : resp.fragments) {
      objects[Key{f.var, f.version, region_hash(f.region)}].push_back(
          std::move(f));
    }
    for (QueueBackup& e : resp.events) {
      auto& q = queues_[e.record.app];
      q.record(std::move(e.record));
    }
  }

  const resilience::ReedSolomon rs(params_.policy.rs_k, params_.policy.rs_m);
  for (auto& [key, frags] : objects) {
    const FragmentPut& first = frags.front();
    Chunk chunk;
    chunk.var = first.var;
    chunk.version = first.version;
    chunk.region = first.region;
    chunk.content_key = first.content_key;
    bool restored = false;

    if (params_.policy.kind == resilience::Redundancy::kReplication) {
      chunk.nominal_bytes = first.nominal_bytes;
      chunk.data = first.data;
      restored = chunk.data != nullptr;
    } else {
      chunk.nominal_bytes =
          first.nominal_bytes *
          static_cast<std::uint64_t>(params_.policy.rs_k);
      std::vector<resilience::Shard> shards(
          static_cast<std::size_t>(rs.total_shards()));
      std::size_t original_physical = 0;
      for (const FragmentPut& f : frags) {
        original_physical = f.original_physical;
        if (f.data && f.frag_index >= 0 &&
            f.frag_index < rs.total_shards()) {
          shards[static_cast<std::size_t>(f.frag_index)] = *f.data;
        }
      }
      auto decoded = rs.decode(shards, original_physical);
      if (decoded) {
        // Verify the reconstruction against the chunk's content key.
        if (verify_payload(std::as_bytes(std::span{*decoded}),
                           chunk.content_key)) {
          chunk.data = std::make_shared<std::vector<std::uint8_t>>(
              std::move(*decoded));
          restored = true;
        }
      }
    }

    if (restored) {
      ++stats_.chunks_rebuilt;
      co_await c.delay(copy_time(chunk.nominal_bytes));
      if (params_.logging && first.logged) dlog_.add(chunk);
      store_.put(std::move(chunk));
      // Re-protect the restored object on the (new) fragment layout.
      if (params_.policy.kind != resilience::Redundancy::kNone) {
        Chunk copy = store_.get(key.var, key.version, first.region).front();
        copy.region = first.region;
        sim::spawn(cluster_->engine(),
                   push_fragments(std::move(copy), first.logged));
      }
    } else {
      ++stats_.rebuild_failures;
    }
  }
}

sim::Task<void> StagingServer::handle_membership_update(
    MembershipUpdate update) {
  sim::Ctx c = ctx();
  co_await c.delay(params_.request_overhead);
  apply_membership(update.epoch, std::move(update.active));
}

sim::Task<void> StagingServer::handle_fragment_fetch(FragmentFetch fetch) {
  sim::Ctx c = ctx();
  co_await c.delay(params_.request_overhead);
  ++stats_.fragment_fetches;
  FragmentFetchResponse resp;
  if (auto it = fragments_.find(fetch.owner); it != fragments_.end()) {
    for (const FragmentPut& f : it->second) {
      if (f.var == fetch.var && f.version == fetch.version)
        resp.fragments.push_back(f);
    }
  }
  co_await c.delay(copy_time(net::wire_size(resp)));  // gather/pack
  co_await rpc_.fulfill(c, fetch.reply_to, std::move(fetch.reply),
                        std::move(resp));
}

sim::Task<void> StagingServer::handle_resilver_put(ResilverPut put) {
  sim::Ctx c = ctx();
  co_await c.delay(params_.request_overhead);
  ++stats_.resilver_chunks_in;
  stats_.resilver_bytes_in += put.chunk.accounted_bytes();
  track_.emit(obs::Kind::kResilverIn, put.chunk.var,
              static_cast<std::int64_t>(put.chunk.version),
              static_cast<std::int64_t>(put.chunk.nominal_bytes));
  co_await c.delay(copy_time(put.chunk.nominal_bytes));
  const std::string var = put.chunk.var;
  const Version version = put.chunk.version;
  if (params_.logging && put.logged) {
    co_await c.delay(
        sim::from_seconds(copy_time(put.chunk.nominal_bytes).seconds() *
                          params_.log_append_fraction));
    dlog_.add(put.chunk);
  }
  if (put.in_store) {
    store_.put(std::move(put.chunk));
    poke_pending(var, version);
  } else if (params_.logging && put.logged) {
    // A log-only version landed: poke_pending only consults the base
    // store, so wake parked logged readers the data log now covers.
    for (std::size_t i = 0; i < pending_.size();) {
      GetRequest& req = pending_[i];
      if (req.logged && req.desc.var == var && req.desc.version == version &&
          dlog_.covers(var, version, req.desc.region)) {
        GetRequest ready = std::move(req);
        pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(i));
        wlog::LogEvent event{wlog::EventKind::kGet, ready.app,
                             ready.desc.version, ready.desc.var,
                             ready.desc.region, 0, 0};
        queues_[ready.app].record(event);
        sim::spawn(cluster_->engine(), mirror_event(std::move(event)));
        auto pieces = dlog_.get(var, version, ready.desc.region);
        ++stats_.gets_from_log;
        sim::spawn(cluster_->engine(),
                   respond_get(std::move(ready), std::move(pieces), true));
      } else {
        ++i;
      }
    }
  }
  poke_governor();
  ResilverAck ack;
  ack.ok = true;
  if (governor_.enabled()) {
    ack.pressure = static_cast<double>(memory().governed()) /
                   static_cast<double>(governor_.soft_bytes());
  }
  co_await rpc_.fulfill(c, put.reply_to, std::move(put.reply), ack);
}

sim::Task<StagingServer::ResilverOutcome> StagingServer::resilver_out_impl(
    int dest, net::EndpointId dest_ep, std::vector<Box> regions) {
  sim::Ctx c = ctx();
  ResilverOutcome outcome;
  const obs::SpanId span = track_.begin("resilver", obs::Phase::kResilver);

  const auto moved = [&](const Box& region) {
    for (const Box& r : regions) {
      if (!region.intersection(r).empty()) return true;
    }
    return false;
  };
  // Drop a local piece only when the hand-off fully covers it; a chunk
  // straddling moved and kept cells stays behind (safe duplication — the
  // oracle's coverage invariant unions holdings across servers).
  const auto covered = [&](const Chunk& ch) {
    return boxes_cover(ch.region, regions);
  };

  // Spilled log versions park their payload on the PFS gateway under
  // *this* server's spill index, which the new owner cannot read. Fault
  // them back in first so the sweep below can hand them off.
  {
    std::vector<std::pair<std::string, Version>> parked;
    for (const auto& [var, versions] : spilled_) {
      for (const auto& [version, bytes] : versions)
        parked.emplace_back(var, version);
    }
    for (auto& [var, version] : parked) {
      co_await ensure_log_resident(var, version);
    }
  }

  std::vector<std::string> vars = store_.variables();
  for (const std::string& var : dlog_.variables()) {
    if (std::find(vars.begin(), vars.end(), var) == vars.end())
      vars.push_back(var);
  }
  std::sort(vars.begin(), vars.end());

  for (const std::string& var : vars) {
    std::vector<Version> versions = store_.versions_of(var);
    for (Version v : dlog_.versions_of(var)) {
      if (std::find(versions.begin(), versions.end(), v) == versions.end())
        versions.push_back(v);
    }
    std::sort(versions.begin(), versions.end());

    // Ascending versions: the destination's window rotation keeps the
    // newest, matching what the old owner would retain.
    for (const Version version : versions) {
      const bool in_store = !store_.chunks_of(var, version).empty();
      const bool logged =
          params_.logging && dlog_.has(var, version);
      // Log-only versions travel in export form (self-contained blocks);
      // store-resident versions travel raw, and the destination's log
      // re-encodes under its own (identical) codec.
      std::vector<Chunk> chunks = in_store
                                      ? store_.chunks_of(var, version)
                                      : dlog_.export_chunks(var, version);
      bool sent_any = false;
      for (Chunk& chunk : chunks) {
        if (!moved(chunk.region)) continue;
        const std::uint64_t bytes = chunk.accounted_bytes();
        ResilverPut rp;
        rp.from = self_index_;
        rp.chunk = std::move(chunk);
        rp.logged = logged;
        rp.in_store = in_store;
        ResilverAck ack = co_await rpc_.call(c, dest_ep, std::move(rp));
        if (!ack.ok) continue;
        sent_any = true;
        ++outcome.chunks;
        outcome.bytes += bytes;
        ++stats_.resilver_chunks_out;
        stats_.resilver_bytes_out += bytes;
        // Yield to foreground traffic while the destination's governor
        // reports pressure: resilver is background work.
        if (ack.pressure > 1.0) {
          co_await c.delay(net::kBackpressureBackoff);
        }
      }
      if (sent_any) {
        if (in_store) store_.drop_pieces(var, version, covered);
        if (logged) dlog_.drop_resilvered(var, version, covered);
      }
    }
  }

  // Parked gets for regions this server no longer owns would wait forever
  // (no local put will cover them): bounce them so the reader re-places
  // against the current epoch.
  for (std::size_t i = 0; i < pending_.size();) {
    if (not_owner(pending_[i].desc.region)) {
      GetRequest bounced = std::move(pending_[i]);
      pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(i));
      ++stats_.wrong_epoch_rejects;
      GetResponse resp;
      resp.wrong_epoch = true;
      resp.epoch = group_index_ != nullptr ? group_index_->epoch() : 0;
      sim::spawn(cluster_->engine(),
                 rpc_.fulfill(c, bounced.reply_to, std::move(bounced.reply),
                              std::move(resp)));
    } else {
      ++i;
    }
  }

  if (outcome.chunks > 0) {
    track_.emit(obs::Kind::kResilverOut, "dest-" + std::to_string(dest),
                static_cast<std::int64_t>(outcome.chunks),
                static_cast<std::int64_t>(outcome.bytes));
  }
  track_.end(span);
  co_return outcome;
}

sim::Task<StagingServer::ResilverOutcome> StagingServer::drain_out_impl(
    std::vector<DrainDest> dests) {
  sim::Ctx c = ctx();
  ResilverOutcome outcome;

  // Late spills between sweeps would strand payloads under this server's
  // spill index; fault them back in before walking the holdings.
  {
    std::vector<std::pair<std::string, Version>> parked;
    for (const auto& [var, versions] : spilled_) {
      for (const auto& [version, bytes] : versions)
        parked.emplace_back(var, version);
    }
    for (auto& [var, version] : parked) {
      co_await ensure_log_resident(var, version);
    }
  }

  const auto intersects = [](const Box& region,
                             const std::vector<Box>& boxes) {
    for (const Box& b : boxes) {
      if (!region.intersection(b).empty()) return true;
    }
    return false;
  };

  std::vector<std::string> vars = store_.variables();
  for (const std::string& var : dlog_.variables()) {
    if (std::find(vars.begin(), vars.end(), var) == vars.end())
      vars.push_back(var);
  }
  std::sort(vars.begin(), vars.end());

  for (const std::string& var : vars) {
    std::vector<Version> versions = store_.versions_of(var);
    for (Version v : dlog_.versions_of(var)) {
      if (std::find(versions.begin(), versions.end(), v) == versions.end())
        versions.push_back(v);
    }
    std::sort(versions.begin(), versions.end());

    for (const Version version : versions) {
      const bool in_store = !store_.chunks_of(var, version).empty();
      const bool logged = params_.logging && dlog_.has(var, version);
      const std::vector<Chunk> chunks =
          in_store ? store_.chunks_of(var, version)
                   : dlog_.export_chunks(var, version);
      std::set<std::uint64_t> released;
      for (const Chunk& chunk : chunks) {
        // The whole piece goes to every successor that now owns part of
        // it; the local copy is released only once all of them hold it,
        // so no reader's placement target is ever missing the bytes.
        bool all_acked = true;
        bool any_dest = false;
        for (const DrainDest& dest : dests) {
          if (!intersects(chunk.region, dest.regions)) continue;
          any_dest = true;
          ResilverPut rp;
          rp.from = self_index_;
          rp.chunk = chunk;
          rp.logged = logged;
          rp.in_store = in_store;
          ResilverAck ack =
              co_await rpc_.call(c, dest.endpoint, std::move(rp));
          if (!ack.ok) {
            all_acked = false;
            continue;
          }
          ++outcome.chunks;
          outcome.bytes += chunk.accounted_bytes();
          ++stats_.resilver_chunks_out;
          stats_.resilver_bytes_out += chunk.accounted_bytes();
          if (ack.pressure > 1.0) {
            co_await c.delay(net::kBackpressureBackoff);
          }
        }
        if (any_dest && all_acked) released.insert(region_hash(chunk.region));
      }
      if (!released.empty()) {
        const auto is_released = [&](const Chunk& ch) {
          return released.count(region_hash(ch.region)) > 0;
        };
        if (in_store) store_.drop_pieces(var, version, is_released);
        if (logged) dlog_.drop_resilvered(var, version, is_released);
      }
    }
  }
  co_return outcome;
}

sim::Task<void> StagingServer::handoff_redundancy_impl() {
  sim::Ctx c = ctx();
  const int n_act = static_cast<int>(view().size());

  // Re-home fragments held for still-active owners using the owner's own
  // round-robin placement over the current view — the same peer the owner
  // would choose when re-pushing, so the receiver's dedup absorbs any
  // overlap instead of double-counting durability. Fragments for owners
  // that also left the group die here: their primaries drained with them.
  if (n_act >= 2) {
    for (auto& [owner, frags] : fragments_) {
      const auto oit =
          std::find(view().begin(), view().end(), owner);
      if (oit == view().end()) continue;
      const int pos = static_cast<int>(oit - view().begin());
      for (FragmentPut& f : frags) {
        const int slot = f.frag_index >= 1 ? f.frag_index : 1;
        const auto target = static_cast<std::size_t>(view()[
            static_cast<std::size_t>((pos + 1 + (slot - 1) % (n_act - 1)) %
                                     n_act)]);
        if (static_cast<int>(target) == owner) continue;
        net::Message msg{f};
        co_await rpc_.send(c, peers()[target], std::move(msg));
      }
    }
    for (auto& [owner, apps] : mirrors_) {
      const auto oit =
          std::find(view().begin(), view().end(), owner);
      if (oit == view().end()) continue;
      const int pos = static_cast<int>(oit - view().begin());
      const auto successor = static_cast<std::size_t>(
          view()[static_cast<std::size_t>((pos + 1) % n_act)]);
      if (static_cast<int>(successor) == owner) continue;
      for (auto& [app, queue] : apps) {
        for (const wlog::LogEvent& e : queue.events()) {
          net::Message msg{QueueBackup{owner, e}};
          co_await rpc_.send(c, peers()[successor], std::move(msg));
        }
      }
    }
  }
  fragments_.clear();
  fragment_bytes_ = 0;
  mirrors_.clear();
}

sim::Task<void> StagingServer::ignore_message() { co_return; }

bool StagingServer::spill_covers(const std::string& var,
                                 Version version) const {
  auto it = spilled_.find(var);
  return it != spilled_.end() && it->second.count(version) > 0;
}

bool StagingServer::any_tenant_over_share() const {
  if (!governor_.fair_share()) return false;
  for (const net::TenantId tenant : store_.tenants()) {
    if (governor_.over_share(tenant, governed_bytes(tenant))) return true;
  }
  return false;
}

void StagingServer::poke_governor() {
  if (!governor_.enabled() || maintenance_inflight_) return;
  // Under fair share a single tenant over its slice needs relief even when
  // the pool as a whole is comfortable — otherwise a hoarding tenant's
  // writers bounce forever while the pooled watermark never trips.
  if (!governor_.over_soft(memory().governed()) && !any_tenant_over_share()) {
    return;
  }
  maintenance_inflight_ = true;
  sim::spawn(cluster_->engine(), maintain_memory());
}

sim::Task<void> StagingServer::maintain_memory() {
  sim::Ctx c = ctx();
  // Urgent GC sweep first: versions the watermark already passed are freed
  // for an index walk, no PFS traffic.
  if (params_.logging) {
    const gc::SweepResult sweep = gc_.sweep(dlog_);
    ++stats_.urgent_gc_sweeps;
    stats_.gc_versions_dropped += sweep.versions_dropped;
    stats_.gc_nominal_freed += sweep.nominal_freed;
    co_await c.delay(params_.gc_cost_per_entry *
                     static_cast<std::int64_t>(sweep.entries_scanned + 1));
    prune_spilled_upto_watermark();
  }

  // Then spill the coldest reclaim-ineligible log versions until the
  // governed footprint is back under the soft watermark. The victim is the
  // globally oldest retained version that is not its variable's newest —
  // the newest is live coupling data, which even GC never reclaims. Under
  // weighted fair-share, victims come from over-share tenants first: the
  // tenant that outgrew its slice pays the spill latency, not its
  // co-residents.
  while (spill_endpoint_ >= 0 && params_.logging &&
         (governor_.over_soft(memory().governed()) ||
          any_tenant_over_share())) {
    std::string victim_var;
    Version victim_version = 0;
    bool found = false;
    bool found_over_share = false;
    for (const std::string& var : dlog_.variables()) {
      const auto versions = dlog_.versions_of(var);
      if (versions.size() < 2) continue;
      const net::TenantId tenant = tenant_of(var);
      const bool over_share =
          governor_.over_share(tenant, governed_bytes(tenant));
      if (found) {
        if (found_over_share && !over_share) continue;
        if (found_over_share == over_share &&
            versions.front() >= victim_version)
          continue;
      }
      found = true;
      found_over_share = over_share;
      victim_var = var;
      victim_version = versions.front();
    }
    if (!found) break;

    // Export form: delta blocks are rebased to self-contained full blocks,
    // so the gateway's copy decodes without this log's base versions.
    auto chunks = dlog_.export_chunks(victim_var, victim_version);
    if (chunks.empty()) break;
    const obs::SpanId span = track_.begin("spill", obs::Phase::kSpill);
    std::uint64_t bytes = 0;
    for (Chunk& chunk : chunks) {
      bytes += chunk.accounted_bytes();
      SpillPut sp;
      sp.owner = self_index_;
      sp.chunk = std::move(chunk);
      co_await rpc_.call(c, spill_endpoint_, std::move(sp));
    }
    track_.end(span);

    // The gateway round-trip let the request loop run: a checkpoint-driven
    // GC sweep or a rollback may have reclaimed the victim meanwhile. The
    // gateway's copy is then an orphan that the next prune retires; the
    // log must NOT be touched (the version is already gone, and dropping
    // a re-added successor would lose data).
    if (!dlog_.has(victim_var, victim_version)) {
      ++stats_.spills_aborted;
      continue;
    }
    dlog_.drop_spilled(victim_var, victim_version);
    spilled_[victim_var][victim_version] = bytes;
    ++stats_.spill_versions;
    stats_.spill_bytes += bytes;
    track_.emit(obs::Kind::kSpillOut, victim_var,
                static_cast<std::int64_t>(victim_version),
                static_cast<std::int64_t>(bytes));
  }
  // Nothing left to sweep or spill, yet still above the hard watermark:
  // the budget is below the workload's working-set floor (base window +
  // newest log versions, which are never evictable). Every put will bounce
  // until clients give up — say so once instead of deadlocking silently.
  if (!budget_warned_ &&
      !governor_.admitting(memory().governed())) {
    budget_warned_ = true;
    std::fprintf(stderr,
                 "[staging] WARNING: server %d governed footprint %llu B "
                 "exceeds the hard watermark %llu B with nothing left to "
                 "spill; memory_budget is below the workload's working-set "
                 "floor\n",
                 self_index_,
                 static_cast<unsigned long long>(memory().governed()),
                 static_cast<unsigned long long>(governor_.hard_bytes()));
  }
  maintenance_inflight_ = false;
}

sim::Task<void> StagingServer::ensure_log_resident(std::string var,
                                                   Version version) {
  if (spill_endpoint_ < 0 || !spill_covers(var, version)) co_return;
  sim::Ctx c = ctx();
  const obs::SpanId span =
      track_.begin("spill fetch", obs::Phase::kSpill, current_request_span_);
  SpillFetch fetch;
  fetch.owner = self_index_;
  fetch.var = var;
  fetch.version = version;
  SpillFetchResponse resp =
      co_await rpc_.call(c, spill_endpoint_, std::move(fetch));
  // The gateway round-trip let the request loop run: a concurrent fault-in
  // of the same version (two replay reads racing) may already have
  // re-ingested it and erased the spill-index entry, or a rollback may have
  // discarded it. Re-adding here would double-count the footprint — or
  // resurrect a rolled-back version.
  if (!spill_covers(var, version) || dlog_.has(var, version)) {
    track_.end(span);
    co_return;
  }
  std::uint64_t bytes = 0;
  for (Chunk& chunk : resp.chunks) {
    bytes += chunk.accounted_bytes();
    dlog_.add(std::move(chunk));
  }
  co_await c.delay(copy_time(bytes));  // re-ingest into the log's index
  ++stats_.spill_fetches;
  stats_.spill_fetch_bytes += bytes;
  if (auto it = spilled_.find(var); it != spilled_.end()) {
    it->second.erase(version);
    if (it->second.empty()) spilled_.erase(it);
  }
  track_.end(span);
  track_.emit(obs::Kind::kSpillFetch, var, static_cast<std::int64_t>(version),
              static_cast<std::int64_t>(bytes));
  poke_governor();  // the fault-in may have pushed us over the soft mark
}

void StagingServer::prune_spilled_upto_watermark() {
  if (spilled_.empty()) return;
  for (auto vit = spilled_.begin(); vit != spilled_.end();) {
    const std::string& var = vit->first;
    const Version mark = gc_.watermark(var);
    auto& versions = vit->second;
    std::size_t dropped = 0;
    for (auto it = versions.begin();
         it != versions.end() && it->first <= mark;) {
      it = versions.erase(it);
      ++dropped;
    }
    if (dropped > 0 && spill_endpoint_ >= 0) {
      sim::Ctx sc = ctx();
      net::Message prune{SpillPrune{self_index_, var, mark, false}};
      sim::spawn(cluster_->engine(),
                 rpc_.send(sc, spill_endpoint_, std::move(prune)));
    }
    vit = versions.empty() ? spilled_.erase(vit) : std::next(vit);
  }
}

}  // namespace dstage::staging
