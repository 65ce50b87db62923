#include "staging/server.hpp"

#include <algorithm>
#include <concepts>
#include <set>
#include <type_traits>
#include <utility>
#include <variant>

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
/// Constrains a visitor arm to the listed Message alternatives.
template <class T, class... Us>
concept OneOf = (std::same_as<std::remove_cvref_t<T>, Us> || ...);
}  // namespace

StagingServer::StagingServer(cluster::Cluster& cluster,
                             cluster::VprocId vproc, ServerParams params,
                             obs::Track track)
    : ctx_{.cluster = &cluster,
           .vproc = vproc,
           .params = std::move(params),
           .rpc = net::Rpc(cluster.fabric(), cluster.vproc(vproc).endpoint),
           .track = track},
      store_(ctx_.params.version_window, ctx_.track),
      dlog_(store_),
      redundancy_(ctx_),
      memory_(ctx_, store_, dlog_, queues_, gc_) {
  dlog_.set_codec(ctx_.params.log_codec);
}

net::EndpointId StagingServer::endpoint() const {
  return ctx_.cluster->vproc(ctx_.vproc).endpoint;
}

MemoryReport StagingServer::memory() const {
  MemoryReport r = memory_.footprint();
  r.redundancy_bytes = redundancy_.fragment_bytes();
  return r;
}

void StagingServer::sample_memory() {
  const sim::TimePoint now = ctx_.cluster->engine().now();
  byte_seconds_ +=
      static_cast<double>(last_total_) * (now - last_sample_).seconds();
  last_sample_ = now;
  const MemoryReport mem = memory();
  last_total_ = mem.total();
  peak_total_ = std::max(peak_total_, last_total_);
  if (memory_.governor().enabled()) {
    // Gauges merge by max, so the final registry reports peak pressure.
    ctx_.track.gauge("governor.pressure",
                     memory_.governor().pressure(mem.governed()));
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
  ctx_.self_index = self_index;
  redundancy_.set_peers(std::move(endpoints), std::move(initial_view));
}

bool StagingServer::not_owner(const Box& region) const {
  return ctx_.group_index != nullptr &&
         ctx_.group_index->sole_owner(region) != ctx_.self_index;
}

void StagingServer::start() { ctx_.spawn(run()); }

sim::Task<void> StagingServer::run() {
  auto& ep = ctx_.cluster->fabric().endpoint(endpoint());
  sim::Ctx c = ctx_.ctx();
  for (;;) {
    net::Packet packet = co_await ep.recv(c.tok);
    ctx_.request_span = ctx_.track.begin(net::message_name(packet.payload),
                                         obs::Phase::kOther);
    ctx_.track.count("staging.requests");
    if (sim::Task<void> handler = dispatch(std::move(packet.payload));
        handler.valid()) {
      co_await handler;
    }
    ctx_.track.end(ctx_.request_span);
    ctx_.request_span = 0;
    sample_memory();
  }
}

sim::Task<void> StagingServer::dispatch(Request request) {
  return std::visit(
      Overloaded{
          [this](PutRequest&& m) { return handle_put(std::move(m)); },
          [this](GetRequest&& m) { return handle_get(std::move(m)); },
          [this](CheckpointEvent&& m) {
            return handle_checkpoint(std::move(m));
          },
          [this](RecoveryEvent&& m) { return handle_recovery(std::move(m)); },
          [this](RollbackRequest&& m) { return handle_rollback(std::move(m)); },
          [this](QueryRequest&& m) { return handle_query(std::move(m)); },
          [this](ResilverPut&& m) {
            return handle_resilver_put(std::move(m));
          },
          [this](CkptDrainAck&& m) {
            return handle_ckpt_drain_ack(std::move(m));
          },
          [this](OneOf<MembershipUpdate, FragmentFetch> auto&& m) {
            return redundancy_.handle(std::move(m));
          },
          [this](OneOf<FragmentPut, FragmentPrune> auto&& m) {
            redundancy_.apply(std::move(m));
            return sim::Task<void>{};
          },
          // Traffic for other endpoints: spill verbs (the gateway),
          // membership control (the GroupManager), level-1/2 checkpoint
          // announcements (the drain agent). Receiving one means a routing
          // bug, and dropping is the safe answer (the sender's reply slot
          // times out loudly).
          [](OneOf<SpillPut, SpillFetch, SpillPrune, JoinGroup, RetireServer,
                   MembershipQuery, CkptStoreLocal, CkptXorShard> auto&&) {
            return sim::Task<void>{};
          },
      },
      std::move(request));
}

void StagingServer::log_get(const GetRequest& req) {
  queues_[req.app].record(wlog::LogEvent{wlog::EventKind::kGet, req.app,
                                         req.desc.version, req.desc.var,
                                         req.desc.region, 0, 0});
}

sim::Task<PutResponse> StagingServer::apply_put(AppId app, bool logged,
                                                Chunk chunk) {
  sim::Ctx c = ctx_.ctx();
  const ServerParams& params = ctx_.params;
  ++ctx_.stats.puts;

  PutResponse resp;

  // Elastic ownership gate, before any state is touched: a put placed
  // against a stale membership view must leave no trace here — the client
  // refreshes its view and re-places against the current epoch.
  if (not_owner(chunk.region)) {
    ++ctx_.stats.wrong_epoch_rejects;
    ctx_.track.emit(obs::Kind::kPutBounce, chunk.var,
                    static_cast<std::int64_t>(chunk.version),
                    static_cast<std::int64_t>(ctx_.group_index->epoch()));
    resp.wrong_epoch = true;
    resp.epoch = ctx_.group_index->epoch();
    co_return resp;
  }

  const bool log = params.logging && logged;
  bool apply = true;

  if (log) {
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
        ++ctx_.stats.puts_suppressed;
      } else {
        ++ctx_.stats.replay_mismatches;  // diverged replay: apply as fresh
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
  // bytes) — the client's re-send is a genuinely fresh request. A put
  // costs its window piece; a logged put costs a second piece only when
  // the log keeps an encoded copy — a raw log piece is the window's piece.
  const std::uint64_t copies =
      log && dlog_.codec_scheme() != wlog::codec::Scheme::kNone ? 2 : 1;
  if (apply && !memory_.admit(chunk, chunk.nominal_bytes * copies)) {
    resp.applied = false;
    resp.retry_later = true;
    co_return resp;
  }

  if (apply && log) {
    co_await c.delay(params.log_event_overhead);
    queues_[app].record(wlog::LogEvent{wlog::EventKind::kPut, app,
                                       chunk.version, chunk.var, chunk.region,
                                       chunk.nominal_bytes, 0});
  }

  if (apply) {
    co_await c.delay(ctx_.copy_time(chunk.nominal_bytes));
    if (log) {
      // Log append: the data log retains the payload for replay (the piece
      // the window holds too; the cost is version/index bookkeeping).
      co_await c.delay(
          sim::from_seconds(ctx_.copy_time(chunk.nominal_bytes).seconds() *
                            params.log_append_fraction));
      dlog_.add(chunk);
    }
    const std::string var = chunk.var;
    const Version version = chunk.version;
    ctx_.track.emit(obs::Kind::kPutAdmit, var,
                    static_cast<std::int64_t>(version),
                    static_cast<std::int64_t>(chunk.nominal_bytes));
    if (params.policy.kind != resilience::Redundancy::kNone) {
      co_await c.delay(params.policy.encode_time(chunk.nominal_bytes));
      ctx_.spawn(redundancy_.push_fragments(chunk, log));
    }
    store_.put(std::move(chunk));
    resp.applied = true;
    wake_pending(var, version, /*from_log=*/false);
    memory_.poke();  // the footprint just grew; spill if over the soft mark
  }
  co_return resp;
}

sim::Task<void> StagingServer::handle_put(PutRequest req) {
  sim::Ctx c = ctx_.ctx();
  co_await c.delay(ctx_.params.request_overhead);
  app_tenants_[req.app] = req.tenant;
  PutResponse resp = co_await apply_put(req.app, req.logged,
                                        std::move(req.chunk));
  co_await ctx_.rpc.fulfill(c, req.reply_to, std::move(req.reply), resp);
}

sim::Task<void> StagingServer::handle_get(GetRequest req) {
  sim::Ctx c = ctx_.ctx();
  const ServerParams& params = ctx_.params;
  co_await c.delay(params.request_overhead);
  app_tenants_[req.app] = req.tenant;
  ++ctx_.stats.gets;

  // Elastic ownership gate: the cell moved — tell the reader to re-place
  // rather than parking a request no local put will ever satisfy.
  if (not_owner(req.desc.region)) {
    ++ctx_.stats.wrong_epoch_rejects;
    ctx_.track.emit(obs::Kind::kGetBounce, req.desc.var,
                    static_cast<std::int64_t>(req.desc.version),
                    static_cast<std::int64_t>(ctx_.group_index->epoch()));
    GetResponse resp;
    resp.wrong_epoch = true;
    resp.epoch = ctx_.group_index->epoch();
    co_await ctx_.rpc.fulfill(c, req.reply_to, std::move(req.reply),
                              std::move(resp));
    co_return;
  }

  const bool log = params.logging && req.logged;
  if (log) {
    auto& q = queues_[req.app];
    if (q.replaying()) {
      const wlog::LogEvent* expected = q.expected();
      // The version is part of the match, exactly as for puts: after a
      // fallback restart from a checkpoint older than the replay anchor
      // (node failures losing an undrained hierarchy cache set), the app
      // re-reads versions from before the script — matching on var/region
      // alone would serve the script's newer version for those reads.
      if (expected != nullptr && expected->kind == wlog::EventKind::kGet &&
          expected->var == req.desc.var &&
          expected->version == req.desc.version &&
          expected->region == req.desc.region) {
        // Serve the version observed during the initial execution.
        const Version logged_version = expected->version;
        q.advance();
        // The replayed version may have been spilled to the PFS under
        // memory pressure: fault it back into the log first.
        co_await memory_.ensure_resident(req.desc.var, logged_version);
        std::vector<Chunk> pieces =
            dlog_.covers(req.desc.var, logged_version, req.desc.region)
                ? dlog_.get(req.desc.var, logged_version, req.desc.region)
                : store_.get(req.desc.var, logged_version, req.desc.region);
        ++ctx_.stats.gets_from_log;
        ctx_.spawn(respond_get(std::move(req), std::move(pieces), true));
        co_return;
      }
      ++ctx_.stats.replay_mismatches;  // fall through as a fresh request
    }
  }

  if (store_.covers(req.desc.var, req.desc.version, req.desc.region)) {
    if (log) {
      co_await c.delay(params.log_event_overhead);
      log_get(req);
    }
    auto pieces = store_.get(req.desc.var, req.desc.version, req.desc.region);
    ctx_.spawn(respond_get(std::move(req), std::move(pieces), false));
    co_return;
  }
  if (log && (dlog_.covers(req.desc.var, req.desc.version, req.desc.region) ||
              memory_.spill_covers(req.desc.var, req.desc.version))) {
    // Version already rotated out of the base window but still retained in
    // the log (slow consumer) — or spilled to the PFS, in which case the
    // read-through below faults it back in first.
    co_await memory_.ensure_resident(req.desc.var, req.desc.version);
    co_await c.delay(params.log_event_overhead);
    log_get(req);
    auto pieces = dlog_.get(req.desc.var, req.desc.version, req.desc.region);
    ++ctx_.stats.gets_from_log;
    ctx_.spawn(respond_get(std::move(req), std::move(pieces), true));
    co_return;
  }

  // Without logging, a request for an already-superseded version is
  // answered with the newest available data — exactly the Fig.-2 case-1
  // anomaly that individual checkpoint/restart exhibits and the data log
  // exists to prevent. (Consumers detect it via content keys.)
  if (!log) {
    const auto latest = store_.latest(req.desc.var);
    if (latest && *latest > req.desc.version &&
        store_.covers(req.desc.var, *latest, req.desc.region)) {
      // Wrong-version serve: the forensic smoking gun for the Fig.-2
      // anomaly — recorded with the version actually substituted.
      ctx_.track.emit(obs::Kind::kGetAnomaly, req.desc.var,
                      static_cast<std::int64_t>(req.desc.version),
                      static_cast<std::int64_t>(*latest));
      auto pieces = store_.get(req.desc.var, *latest, req.desc.region);
      ctx_.spawn(respond_get(std::move(req), std::move(pieces), false));
      co_return;
    }
  }

  // Data not yet produced: park the request until a covering put arrives
  // (DataSpaces-style blocking get).
  ++ctx_.stats.gets_pending;
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
  co_await ctx_.ctx().delay(ctx_.copy_time(bytes));  // gather/pack
  co_await ctx_.rpc.fulfill(ctx_.ctx(), req.reply_to, std::move(req.reply),
                            std::move(resp));
}

void StagingServer::wake_pending(const std::string& var, Version version,
                                 bool from_log) {
  const bool logging = ctx_.params.logging;
  const auto ready = [&](const GetRequest& req) {
    if (req.desc.var != var) return false;
    if (from_log) {
      return req.logged && req.desc.version == version &&
             dlog_.covers(var, version, req.desc.region);
    }
    const bool exact = req.desc.version == version;
    const bool superseded =
        !(logging && req.logged) && req.desc.version < version;
    return (exact || superseded) &&
           store_.covers(var, version, req.desc.region);
  };
  for (std::size_t i = 0; i < pending_.size();) {
    if (!ready(pending_[i])) {
      ++i;
      continue;
    }
    GetRequest req = std::move(pending_[i]);
    pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(i));
    if (logging && req.logged) log_get(req);
    // `version` (not desc.version) so superseded requests observe the
    // newer data.
    auto pieces = from_log ? dlog_.get(var, version, req.desc.region)
                           : store_.get(var, version, req.desc.region);
    if (from_log) ++ctx_.stats.gets_from_log;
    ctx_.spawn(respond_get(std::move(req), std::move(pieces), from_log));
  }
}

sim::Task<void> StagingServer::handle_checkpoint(CheckpointEvent ev) {
  sim::Ctx c = ctx_.ctx();
  const ServerParams& params = ctx_.params;
  co_await c.delay(params.request_overhead);
  app_tenants_[ev.app] = ev.tenant;
  ++ctx_.stats.checkpoints;

  CheckpointAck ack;
  ack.chk_id = next_chk_id_++;
  // Only durable checkpoints move the watermark: a non-durable one (a
  // checkpoint-hierarchy cache set before its drain) can be lost to node
  // failures, whose recovery falls back to the last durable checkpoint and
  // must still be able to replay every logged version above it.
  if (ev.durable) advance_watermark(ev.app, ev.version);

  if (params.logging) {
    // End of a checkpoint cycle: clean the event queue. The marker is
    // recorded for every level — it anchors the replay script for a
    // restart from this checkpoint — but payload reclamation below only
    // runs when the watermark may actually have advanced.
    wlog::EventQueue& q = queues_[ev.app];
    q.record(wlog::LogEvent{wlog::EventKind::kCheckpoint, ev.app, ev.version,
                            {}, Box{}, 0, ack.chk_id});
    const std::size_t events_dropped = q.truncate_before_last_checkpoint();
    ctx_.track.emit(obs::Kind::kLogTruncate,
                    static_cast<std::int64_t>(events_dropped));
    ctx_.track.count("wlog.events_truncated", events_dropped);
  }
  if (params.logging && ev.durable) co_await sweep_after_durable();

  co_await ctx_.rpc.fulfill(c, ev.reply_to, std::move(ev.reply), ack);
}

void StagingServer::advance_watermark(AppId app, Version version) {
  std::vector<std::pair<std::string, Version>> before;
  for (std::string& var : gc_.variables()) {
    const Version mark = gc_.watermark(var);
    before.emplace_back(std::move(var), mark);
  }
  gc_.on_checkpoint(app, version);
  ctx_.track.emit(obs::Kind::kGcCheckpoint, app,
                  static_cast<std::int64_t>(version));
  for (const auto& [var, from] : before) {
    const Version to = gc_.watermark(var);
    if (to <= from) continue;
    ctx_.track.emit(obs::Kind::kGcWatermark, var,
                    static_cast<std::int64_t>(to));
    ctx_.track.count("gc.watermark_advances");
  }
}

sim::Task<void> StagingServer::sweep_after_durable() {
  const obs::SpanId sweep_span = ctx_.track.begin(
      "gc sweep", obs::Phase::kOther, ctx_.request_span);
  const gc::SweepResult sweep = co_await memory_.sweep_log();
  ctx_.track.end(sweep_span);
  ctx_.track.emit(obs::Kind::kGcSweep,
                  static_cast<std::int64_t>(sweep.entries_scanned),
                  static_cast<std::int64_t>(sweep.nominal_freed));
  ctx_.track.count("gc.sweeps");
  ctx_.track.count("gc.entries_scanned", sweep.entries_scanned);
  // Spilled versions the watermark has now passed are as unreachable as
  // swept log versions: retire their PFS spill files too.
  memory_.prune_to_watermark();
  // Peers can reclaim fragments of a windowed variable that neither the
  // window nor the log still holds.
  if (!redundancy_.prunes()) co_return;
  for (const std::string& var : store_.variables()) {
    const Version keep_from = store_.versions_of(var, Holder::kBoth).front();
    if (keep_from == 0) continue;
    redundancy_.prune_peers(var, keep_from - 1);
  }
}

sim::Task<void> StagingServer::handle_ckpt_drain_ack(CkptDrainAck ack) {
  sim::Ctx c = ctx_.ctx();
  co_await c.delay(ctx_.params.request_overhead);
  ++ctx_.stats.drain_promotions;
  ctx_.track.emit(obs::Kind::kDrainAck, std::to_string(ack.app),
                  static_cast<std::int64_t>(ack.version));
  // The async drain completed: the cached set at `version` is durable now,
  // which is exactly what lets the GC watermark advance. No queue marker is
  // recorded here — the non-durable CheckpointEvent taken when the set was
  // cached already anchors the replay script at this timestep.
  advance_watermark(ack.app, ack.version);
  if (ctx_.params.logging) co_await sweep_after_durable();
}

sim::Task<void> StagingServer::handle_recovery(RecoveryEvent ev) {
  sim::Ctx c = ctx_.ctx();
  co_await c.delay(ctx_.params.request_overhead);
  app_tenants_[ev.app] = ev.tenant;

  RecoveryAck ack;
  if (ctx_.params.logging) {
    auto& q = queues_[ev.app];
    q.record(wlog::LogEvent{wlog::EventKind::kRecovery, ev.app,
                            ev.restored_version, {}, Box{}, 0, 0});
    ack.replay_events = q.begin_replay();
  }
  co_await ctx_.rpc.fulfill(c, ev.reply_to, std::move(ev.reply), ack);
}

sim::Task<void> StagingServer::handle_rollback(RollbackRequest req) {
  sim::Ctx c = ctx_.ctx();
  co_await c.delay(ctx_.params.request_overhead);

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

  // Both holders let go: no codec rebase is needed, as a surviving delta's
  // base is always older than the delta itself, hence also a survivor.
  RollbackAck ack;
  ack.versions_dropped =
      store_.drop_versions_above(req.version, in_scope, Holder::kBoth);
  memory_.rollback_above(req.version, tenant);
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

  co_await ctx_.rpc.fulfill(c, req.reply_to, std::move(req.reply), ack);
}

sim::Task<void> StagingServer::handle_query(QueryRequest query) {
  sim::Ctx c = ctx_.ctx();
  co_await c.delay(ctx_.params.request_overhead);
  QueryResponse resp;
  resp.store_versions = store_.versions_of(query.var);
  resp.logged_versions = memory_.retained_versions(query.var);
  co_await ctx_.rpc.fulfill(c, query.reply_to, std::move(query.reply),
                            std::move(resp));
}

sim::Task<void> StagingServer::handle_resilver_put(ResilverPut put) {
  sim::Ctx c = ctx_.ctx();
  const ServerParams& params = ctx_.params;
  co_await c.delay(params.request_overhead);
  ++ctx_.stats.resilver_chunks_in;
  ctx_.stats.resilver_bytes_in += put.chunk.accounted_bytes();
  ctx_.track.emit(obs::Kind::kResilverIn, put.chunk.var,
                  static_cast<std::int64_t>(put.chunk.version),
                  static_cast<std::int64_t>(put.chunk.nominal_bytes));
  co_await c.delay(ctx_.copy_time(put.chunk.nominal_bytes));
  const std::string var = put.chunk.var;
  const Version version = put.chunk.version;
  const bool log = params.logging && put.logged;
  if (log) {
    co_await c.delay(
        sim::from_seconds(ctx_.copy_time(put.chunk.nominal_bytes).seconds() *
                          params.log_append_fraction));
    dlog_.add(put.chunk);
  }
  if (put.in_store) {
    store_.put(std::move(put.chunk));
    wake_pending(var, version, /*from_log=*/false);
  } else if (log) {
    wake_pending(var, version, /*from_log=*/true);
  }
  memory_.poke();
  ResilverAck ack;
  ack.ok = true;
  const MemoryGovernor& governor = memory_.governor();
  if (governor.enabled()) {
    ack.pressure = static_cast<double>(memory_.governed()) /
                   static_cast<double>(governor.soft_bytes());
  }
  co_await ctx_.rpc.fulfill(c, put.reply_to, std::move(put.reply), ack);
}

sim::Task<StagingServer::ResilverOutcome> StagingServer::resilver_out_impl(
    int dest, net::EndpointId dest_ep, std::vector<Box> regions) {
  const obs::SpanId span =
      ctx_.track.begin("resilver", obs::Phase::kResilver);
  std::vector<DrainDest> dests;
  dests.push_back(DrainDest{dest_ep, std::move(regions)});
  const ResilverOutcome outcome =
      co_await hand_off(std::move(dests), Release::kCovered);

  // Parked gets for regions this server no longer owns would wait forever
  // (no local put will cover them): bounce them so the reader re-places
  // against the current epoch.
  sim::Ctx c = ctx_.ctx();
  for (std::size_t i = 0; i < pending_.size();) {
    if (not_owner(pending_[i].desc.region)) {
      GetRequest bounced = std::move(pending_[i]);
      pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(i));
      ++ctx_.stats.wrong_epoch_rejects;
      GetResponse resp;
      resp.wrong_epoch = true;
      resp.epoch =
          ctx_.group_index != nullptr ? ctx_.group_index->epoch() : 0;
      ctx_.rpc.post(ctx_.rpc.fulfill(c, bounced.reply_to,
                                     std::move(bounced.reply),
                                     std::move(resp)));
    } else {
      ++i;
    }
  }

  if (outcome.chunks > 0) {
    ctx_.track.emit(obs::Kind::kResilverOut, "dest-" + std::to_string(dest),
                    static_cast<std::int64_t>(outcome.chunks),
                    static_cast<std::int64_t>(outcome.bytes));
  }
  ctx_.track.end(span);
  co_return outcome;
}

sim::Task<StagingServer::ResilverOutcome> StagingServer::hand_off(
    std::vector<DrainDest> dests, Release release) {
  sim::Ctx c = ctx_.ctx();
  ResilverOutcome outcome;
  co_await memory_.fault_in_all();

  for (const std::string& var : store_.variables(Holder::kBoth)) {
    // Ascending versions: the destination's window rotation keeps the
    // newest, matching what the old owner would retain.
    for (const Version version : store_.versions_of(var, Holder::kBoth)) {
      const bool in_store = store_.holds(var, version);
      const bool logged = ctx_.params.logging && dlog_.has(var, version);
      // Log-only versions travel in export form (self-contained blocks);
      // store-resident versions travel raw, and the destination's log
      // re-encodes under its own (identical) codec.
      const std::vector<Chunk> chunks =
          in_store ? store_.chunks_of(var, version)
                   : dlog_.export_chunks(var, version);
      bool any_acked = false;
      std::set<std::uint64_t> released;  // pieces every destination acked
      for (const Chunk& chunk : chunks) {
        bool all_acked = true;
        bool any_dest = false;
        for (const DrainDest& dest : dests) {
          if (std::ranges::none_of(dest.regions, [&](const Box& b) {
                return chunk.region.intersects(b);
              }))
            continue;
          any_dest = true;
          ResilverPut rp;
          rp.from = ctx_.self_index;
          rp.chunk = chunk;
          rp.logged = logged;
          rp.in_store = in_store;
          const ResilverAck ack =
              co_await ctx_.rpc.call(c, dest.endpoint, std::move(rp));
          if (!ack.ok) {
            all_acked = false;
            continue;
          }
          any_acked = true;
          ++outcome.chunks;
          outcome.bytes += chunk.accounted_bytes();
          ++ctx_.stats.resilver_chunks_out;
          ctx_.stats.resilver_bytes_out += chunk.accounted_bytes();
          // Yield to foreground traffic while the destination's governor
          // reports pressure: resilver is background work.
          if (ack.pressure > 1.0) co_await c.delay(net::kBackpressureBackoff);
        }
        if (any_dest && all_acked) released.insert(region_hash(chunk.region));
      }

      const auto drop = [&](const auto& pred) {
        if (in_store) store_.drop_pieces(var, version, pred);
        if (logged) dlog_.drop_resilvered(var, version, pred);
      };
      if (release == Release::kCovered && any_acked) {
        drop([&](const Chunk& ch) {
          return boxes_cover(ch.region, dests.front().regions);
        });
      } else if (release == Release::kAcked && !released.empty()) {
        drop([&](const Chunk& ch) {
          return released.count(region_hash(ch.region)) > 0;
        });
      }
    }
  }
  co_return outcome;
}

}  // namespace dstage::staging
