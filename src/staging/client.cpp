#include "staging/client.hpp"

#include <exception>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <variant>

#include "staging/degraded_read.hpp"
#include "staging/tenant.hpp"

namespace dstage::staging {

namespace {
/// Bound on wrong_epoch refresh/re-place rounds per request. Each round
/// re-snapshots the placement map, so a request can only keep bouncing if
/// membership churns faster than the client can follow — a configuration
/// error worth failing loudly on, not retrying forever.
constexpr int kMaxEpochRounds = 8;
}  // namespace

StagingClient::StagingClient(cluster::Cluster& cluster,
                             const dht::SpatialIndex& index,
                             std::vector<cluster::VprocId> servers,
                             cluster::VprocId self, ClientParams params)
    : cluster_(&cluster),
      index_(&index),
      servers_(std::move(servers)),
      self_(self),
      params_(params),
      rpc_(cluster.fabric(), cluster.vproc(self).endpoint) {}

net::EndpointId StagingClient::server_endpoint(int server) const {
  return cluster_->vproc(servers_[static_cast<std::size_t>(server)]).endpoint;
}

void StagingClient::set_degraded_probe(std::function<bool(int)> probe) {
  degraded_probe_ = std::move(probe);
  // Server endpoints never change: map them to server indices once.
  std::unordered_map<net::EndpointId, int> server_at;
  for (std::size_t s = 0; s < servers_.size(); ++s) {
    const int server = static_cast<int>(s);
    server_at.emplace(server_endpoint(server), server);
  }
  rpc_.set_peer_check([this, server_at = std::move(server_at)](
                          net::EndpointId ep, const net::Message& request) {
    // Only the data path fails fast; workflow broadcasts wait as before.
    if (!std::holds_alternative<PutRequest>(request) &&
        !std::holds_alternative<GetRequest>(request)) {
      return;
    }
    if (const auto it = server_at.find(ep); it != server_at.end()) {
      fail_if_degraded(it->second);
    }
  });
}

void StagingClient::fail_if_degraded(int server) const {
  if (degraded_probe_ && degraded_probe_(server)) {
    throw StagingDegradedError(server);
  }
}

net::Addressed<PutRequest> StagingClient::put_request(int server,
                                                      Chunk chunk) const {
  PutRequest req;
  req.app = params_.app;
  req.chunk = std::move(chunk);
  req.logged = params_.logged;
  req.tenant = params_.tenant;
  return {server_endpoint(server), std::move(req)};
}

net::Addressed<GetRequest> StagingClient::get_request(int server,
                                                      ObjectDesc desc) const {
  GetRequest req;
  req.app = params_.app;
  req.desc = std::move(desc);
  req.logged = params_.logged;
  req.tenant = params_.tenant;
  return {server_endpoint(server), std::move(req)};
}

sim::Task<PutResult> StagingClient::put_impl(sim::Ctx ctx, std::string var,
                                             Version version, Box region) {
  // Namespace before any placement or send: servers, logs, GC watermarks
  // and spill indices all key on the tenant-qualified name. Identity for
  // the default tenant.
  var = tenant_key(params_.tenant, var);
  const sim::TimePoint start = ctx.now();
  ++puts_issued_;
  PutResult result;
  ensure_view();

  std::vector<Box> todo{region};
  int rounds = 0;
  while (!todo.empty()) {
    if (++rounds > kMaxEpochRounds) {
      throw std::runtime_error(
          "staging put: membership refresh retries exhausted");
    }
    // One message per piece, in placement order.
    std::vector<net::Addressed<PutRequest>> calls;
    for (const Box& box : todo) {
      for (const dht::Placement& placement : index_->place(box, view_)) {
        for (const Box& piece : placement.pieces) {
          Chunk chunk = make_chunk(var, version, piece,
                                   params_.bytes_per_point, params_.mem_scale);
          calls.push_back(put_request(placement.server, std::move(chunk)));
        }
      }
    }
    todo.clear();
    auto replies = co_await rpc_.call_all(ctx, std::move(calls), put_policy());
    replies.rethrow_first();

    bool refresh = false;
    for (std::size_t i = 0; i < replies.size(); ++i) {
      const PutResponse& r = *replies.response(i);
      const Chunk& chunk = replies.request(i).chunk;
      if (r.wrong_epoch) {
        // The cell moved under us: re-place just this piece against the
        // refreshed view. Admitted siblings stay admitted.
        todo.push_back(chunk.region);
        ++result.wrong_epoch_retries;
        refresh = true;
        continue;
      }
      result.nominal_bytes += chunk.nominal_bytes;
      ++result.pieces;
      if (r.suppressed) ++result.suppressed;
    }
    if (refresh) co_await refresh_view(ctx);
  }
  result.response_time = ctx.now() - start;
  co_return result;
}

sim::Task<GetResult> StagingClient::get_impl(sim::Ctx ctx, std::string var,
                                             Version version, Box region) {
  var = tenant_key(params_.tenant, var);
  const sim::TimePoint start = ctx.now();
  ++gets_issued_;
  GetResult result;
  ensure_view();

  auto accumulate = [&](Chunk piece) {
    result.nominal_bytes += piece.nominal_bytes;
    switch (check_chunk(piece, var, version)) {
      case ChunkCheck::kOk:
        break;
      case ChunkCheck::kWrongVersion:
        ++result.wrong_version;
        break;
      case ChunkCheck::kCorrupt:
        ++result.corrupt;
        break;
    }
    result.pieces.push_back(std::move(piece));
  };

  std::vector<Box> todo{region};
  int rounds = 0;
  while (!todo.empty()) {
    if (++rounds > kMaxEpochRounds) {
      throw std::runtime_error(
          "staging get: membership refresh retries exhausted");
    }
    // One message per piece, in placement order; `targets` runs parallel
    // to the calls for degraded reads.
    std::vector<int> targets;
    std::vector<net::Addressed<GetRequest>> calls;
    for (const Box& box : todo) {
      for (const dht::Placement& placement : index_->place(box, view_)) {
        for (const Box& piece : placement.pieces) {
          targets.push_back(placement.server);
          ObjectDesc desc{var, version, piece};
          calls.push_back(get_request(placement.server, std::move(desc)));
        }
      }
    }
    todo.clear();
    auto replies = co_await rpc_.call_all(ctx, std::move(calls), get_policy());
    // A failed piece is read from its redundancy fragments when its server
    // runs degraded; any other failure surfaces, the first one first.
    for (const auto& [i, error] : replies.failures()) {
      if (!reads_degraded(error)) std::rethrow_exception(error);
    }

    bool refresh = false;
    for (std::size_t i = 0; i < replies.size(); ++i) {
      const Box& piece = replies.request(i).desc.region;
      GetResponse* r = replies.response(i);
      if (r == nullptr) {
        auto rebuilt =
            co_await degraded_fetch(ctx, targets[i], var, version, piece);
        ++result.degraded_pieces;
        for (Chunk& got : rebuilt) accumulate(std::move(got));
        continue;
      }
      if (r->wrong_epoch) {
        // The cell moved under us: re-place just this piece against the
        // refreshed view.
        todo.push_back(piece);
        ++result.wrong_epoch_retries;
        refresh = true;
        continue;
      }
      result.any_from_log |= r->from_log;
      for (Chunk& got : r->pieces) accumulate(std::move(got));
    }
    if (refresh) co_await refresh_view(ctx);
  }
  result.response_time = ctx.now() - start;
  co_return result;
}

bool StagingClient::reads_degraded(const std::exception_ptr& error) const {
  if (!elastic() || !degraded_reads_ ||
      policy_.kind == resilience::Redundancy::kNone) {
    return false;
  }
  try {
    std::rethrow_exception(error);
  } catch (const StagingDegradedError&) {
    return true;
  } catch (...) {
    return false;
  }
}

sim::Task<std::uint64_t> StagingClient::workflow_check(sim::Ctx ctx,
                                                       Version version,
                                                       bool durable) {
  std::vector<net::Addressed<CheckpointEvent>> calls;
  for (int s : fanout_targets()) {
    CheckpointEvent ev;
    ev.app = params_.app;
    ev.version = version;
    ev.durable = durable;
    ev.tenant = params_.tenant;
    calls.push_back({server_endpoint(s), std::move(ev)});
  }
  auto acks = co_await rpc_.call_all(ctx, std::move(calls));
  acks.rethrow_first();
  std::uint64_t max_id = 0;
  for (std::size_t i = 0; i < acks.size(); ++i) {
    max_id = std::max(max_id, acks.response(i)->chk_id);
  }
  co_return max_id;
}

sim::Task<void> StagingClient::ckpt_announce(sim::Ctx ctx, Version version,
                                             std::uint64_t parity_bytes,
                                             net::EndpointId drain_ep) {
  co_await rpc_.send(ctx, drain_ep,
                     net::Message{CkptStoreLocal{params_.app, version}});
  co_await rpc_.send(
      ctx, drain_ep,
      net::Message{CkptXorShard{params_.app, version, parity_bytes}});
}

sim::Task<std::size_t> StagingClient::workflow_restart(
    sim::Ctx ctx, Version restored_version) {
  // Re-initialize the staging client: rebuild RDMA connections to every
  // server before the recovery notification goes out.
  co_await ctx.delay(params_.reconnect_cost);

  std::vector<net::Addressed<RecoveryEvent>> calls;
  for (int s : fanout_targets()) {
    RecoveryEvent ev;
    ev.app = params_.app;
    ev.restored_version = restored_version;
    ev.tenant = params_.tenant;
    calls.push_back({server_endpoint(s), std::move(ev)});
  }
  auto acks = co_await rpc_.call_all(ctx, std::move(calls));
  acks.rethrow_first();
  std::size_t total = 0;
  for (std::size_t i = 0; i < acks.size(); ++i) {
    total += acks.response(i)->replay_events;
  }
  co_return total;
}

sim::Task<QueryResult> StagingClient::query_impl(sim::Ctx ctx,
                                                 std::string var) {
  var = tenant_key(params_.tenant, var);
  std::vector<net::Addressed<QueryRequest>> calls;
  for (int s : fanout_targets()) {
    QueryRequest req;
    req.var = var;
    req.tenant = params_.tenant;
    calls.push_back({server_endpoint(s), std::move(req)});
  }
  auto responses = co_await rpc_.call_all(ctx, std::move(calls));
  responses.rethrow_first();

  QueryResult result;
  std::map<Version, std::size_t> log_counts;
  std::set<Version> available;
  for (std::size_t i = 0; i < responses.size(); ++i) {
    const QueryResponse& r = *responses.response(i);
    available.insert(r.store_versions.begin(), r.store_versions.end());
    for (Version v : r.logged_versions) ++log_counts[v];
  }
  result.available.assign(available.begin(), available.end());
  for (const auto& [v, n] : log_counts) {
    if (n == responses.size()) result.fully_logged.push_back(v);
  }
  co_return result;
}

sim::Task<void> StagingClient::rollback_staging(sim::Ctx ctx, Version version,
                                                net::TenantId tenant) {
  std::vector<net::Addressed<RollbackRequest>> calls;
  for (int s : fanout_targets()) {
    RollbackRequest req;
    req.version = version;
    req.tenant = tenant;
    calls.push_back({server_endpoint(s), std::move(req)});
  }
  auto acks = co_await rpc_.call_all(ctx, std::move(calls));
  acks.rethrow_first();
}

void StagingClient::ensure_view() {
  if (!view_.valid()) view_ = index_->snapshot();
}

std::vector<int> StagingClient::fanout_targets() const {
  // Workflow events follow the live active set: retired standbys are
  // drained and joiners must see checkpoints so their GC watermarks
  // advance. A fixed group's active set is every server, in index order.
  return index_->active_servers();
}

sim::Task<void> StagingClient::refresh_view(sim::Ctx ctx) {
  if (group_ep_ < 0) {
    view_ = index_->snapshot();
    co_return;
  }
  MembershipQuery query;
  MembershipInfo info =
      co_await rpc_.call(ctx, group_ep_, std::move(query), get_policy());
  // The round-trip models fetching the view from the GroupManager; the
  // snapshot is the authoritative owner map for (at least) info.epoch.
  view_ = index_->snapshot();
  ++epoch_refreshes_;
  (void)info;
}

sim::Task<std::vector<Chunk>> StagingClient::degraded_fetch(sim::Ctx ctx,
                                                            int owner,
                                                            std::string var,
                                                            Version version,
                                                            Box piece) {
  // Gather whatever fragments the surviving peers hold for the owner.
  // Peers that are themselves down are skipped — reconstruction succeeds
  // from any k survivors (RS) or any replica.
  std::vector<FragmentPut> fragments;
  for (int s : fanout_targets()) {
    if (s == owner) continue;
    if (degraded_probe_ && degraded_probe_(s)) continue;
    FragmentFetch fetch;
    fetch.owner = owner;
    fetch.var = var;
    fetch.version = version;
    try {
      FragmentFetchResponse resp = co_await rpc_.call(
          ctx, server_endpoint(s), std::move(fetch), get_policy());
      for (FragmentPut& f : resp.fragments) fragments.push_back(std::move(f));
    } catch (const std::runtime_error&) {
      // Unreachable peer: reconstruct from whoever answered.
    }
  }
  ObjectDesc desc{std::move(var), version, piece};
  DegradedReconstruction rec =
      reconstruct_from_fragments(fragments, desc, policy_);
  // Decoding the survivors costs what encoding them did.
  co_await ctx.delay(policy_.encode_time(rec.nominal_bytes));
  ++degraded_read_count_;
  co_return std::move(rec.pieces);
}

}  // namespace dstage::staging
