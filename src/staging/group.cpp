#include "staging/group.hpp"

#include <algorithm>
#include <map>
#include <utility>
#include <variant>

#include "sim/spawn.hpp"

namespace dstage::staging {

namespace {
/// Control-plane processing cost per membership request.
constexpr sim::Duration kControlOverhead = sim::microseconds(3);
/// Pause between drain sweeps of a retiring server (lets in-flight puts
/// that passed the ownership gate before the epoch bump land).
constexpr sim::Duration kDrainPause = sim::microseconds(50);
/// Drain passes before a retire gives up and reports failure.
constexpr int kMaxDrainSweeps = 64;
}  // namespace

GroupManager::GroupManager(cluster::Cluster& cluster, cluster::VprocId vproc,
                           dht::SpatialIndex& index,
                           std::vector<StagingServer*> servers,
                           obs::Track track)
    : cluster_(&cluster),
      vproc_(vproc),
      index_(&index),
      servers_(std::move(servers)),
      rpc_(cluster.fabric(), cluster.vproc(vproc).endpoint),
      track_(track) {}

net::EndpointId GroupManager::endpoint() const {
  return cluster_->vproc(vproc_).endpoint;
}

void GroupManager::start() { sim::spawn(cluster_->engine(), run()); }

sim::Task<void> GroupManager::run() {
  auto& ep = cluster_->fabric().endpoint(endpoint());
  sim::Ctx c = ctx();
  for (;;) {
    net::Packet packet = co_await ep.recv(c.tok);
    net::Message msg = std::move(packet.payload);
    if (auto* join = std::get_if<JoinGroup>(&msg)) {
      co_await handle_join(std::move(*join));
    } else if (auto* retire = std::get_if<RetireServer>(&msg)) {
      co_await handle_retire(std::move(*retire));
    } else if (auto* query = std::get_if<MembershipQuery>(&msg)) {
      co_await handle_query(std::move(*query));
    }
    // Anything else is misrouted; dropping keeps the manager inert.
  }
}

sim::Task<void> GroupManager::broadcast_view() {
  sim::Ctx c = ctx();
  const std::uint64_t epoch = index_->epoch();
  const std::vector<int> active = index_->active_servers();
  track_.emit(obs::Kind::kEpochChange, static_cast<std::int64_t>(epoch),
              static_cast<std::int64_t>(active.size()));
  for (std::size_t s = 0; s < servers_.size(); ++s) {
    ++stats_.membership_updates;
    net::Message update{MembershipUpdate{epoch, active}};
    co_await rpc_.send(c, server_endpoint(static_cast<int>(s)),
                       std::move(update));
  }
}

sim::Task<StagingServer::ResilverOutcome> GroupManager::resilver_moves(
    std::vector<dht::CellMove> moves) {
  sim::Ctx c = ctx();
  StagingServer::ResilverOutcome total;

  // Group the moved cells by (old owner → new owner) pair; each pair is one
  // resilver transfer of exactly those cells' boxes — minimal data motion.
  std::map<std::pair<int, int>, std::vector<Box>> transfers;
  for (const dht::CellMove& m : moves) {
    Box box = index_->cell_box_of(m.cell);
    if (box.empty()) continue;  // curve cell outside the domain grid
    transfers[{m.from, m.to}].push_back(box);
  }

  std::vector<sim::Task<StagingServer::ResilverOutcome>> sweeps;
  for (auto& [pair, regions] : transfers) {
    const auto [from, to] = pair;
    sweeps.push_back(servers_[static_cast<std::size_t>(from)]->resilver_out(
        to, server_endpoint(to), std::move(regions)));
  }
  auto outcomes = co_await sim::when_all(c, std::move(sweeps));
  for (const StagingServer::ResilverOutcome& o : outcomes) {
    total.chunks += o.chunks;
    total.bytes += o.bytes;
  }
  stats_.resilver_chunks += total.chunks;
  stats_.resilver_bytes += total.bytes;
  co_return total;
}

sim::Task<void> GroupManager::handle_join(JoinGroup req) {
  sim::Ctx c = ctx();
  co_await c.delay(kControlOverhead);

  const std::vector<int>& active = index_->active_servers();
  int server = req.server;
  if (server < 0) {
    // Pick the lowest-numbered standby.
    for (std::size_t s = 0; s < servers_.size(); ++s) {
      if (std::find(active.begin(), active.end(), static_cast<int>(s)) ==
          active.end()) {
        server = static_cast<int>(s);
        break;
      }
    }
  }

  GroupChangeAck ack;
  ack.server = server;
  const bool valid =
      server >= 0 && server < static_cast<int>(servers_.size()) &&
      std::find(active.begin(), active.end(), server) == active.end();
  if (!valid) {
    ++stats_.rejected;
    ack.ok = false;
    ack.epoch = index_->epoch();
    co_await rpc_.fulfill(c, req.reply_to, std::move(req.reply), ack);
    co_return;
  }

  const obs::SpanId span = track_.begin("join", obs::Phase::kResilver);
  track_.count("elastic.joins");

  std::vector<dht::CellMove> moves = index_->add_server(server);
  co_await broadcast_view();

  resilver_active_ = true;
  const sim::TimePoint resilver_start = cluster_->engine().now();
  co_await resilver_moves(std::move(moves));
  stats_.resilver_time_s +=
      (cluster_->engine().now() - resilver_start).seconds();
  resilver_active_ = false;

  ++stats_.joins;
  ack.ok = true;
  ack.epoch = index_->epoch();
  track_.end(span);
  co_await rpc_.fulfill(c, req.reply_to, std::move(req.reply), ack);
}

sim::Task<void> GroupManager::handle_retire(RetireServer req) {
  sim::Ctx c = ctx();
  co_await c.delay(kControlOverhead);

  const std::vector<int>& active = index_->active_servers();
  int server = req.server;
  if (server < 0 && !active.empty()) server = active.back();

  GroupChangeAck ack;
  ack.server = server;
  const bool valid =
      server >= 0 && server < static_cast<int>(servers_.size()) &&
      active.size() >= 2 &&
      std::find(active.begin(), active.end(), server) != active.end();
  if (!valid) {
    ++stats_.rejected;
    ack.ok = false;
    ack.epoch = index_->epoch();
    co_await rpc_.fulfill(c, req.reply_to, std::move(req.reply), ack);
    co_return;
  }

  const obs::SpanId span = track_.begin("retire", obs::Phase::kResilver);
  track_.count("elastic.retires");

  std::vector<dht::CellMove> moves = index_->remove_server(server);
  co_await broadcast_view();

  // Drain until the retiree holds no primary data. New requests bounce off
  // the live ownership gate the moment the epoch advanced, but puts that
  // passed the gate before the bump may still land between sweeps.
  resilver_active_ = true;
  const sim::TimePoint resilver_start = cluster_->engine().now();
  StagingServer* retiree = servers_[static_cast<std::size_t>(server)];
  co_await resilver_moves(moves);

  // The per-destination sweep above leaves behind any chunk straddling
  // cells that moved to *different* successors (no single transfer covers
  // it). The drain pass hands each leftover piece whole to every new owner
  // of its region before releasing it, so a finite number of sweeps always
  // empties the retiree.
  std::map<int, std::vector<Box>> successor_regions;
  for (const dht::CellMove& m : moves) {
    Box box = index_->cell_box_of(m.cell);
    if (!box.empty()) successor_regions[m.to].push_back(box);
  }
  std::vector<StagingServer::DrainDest> dests;
  for (auto& [to, regions] : successor_regions) {
    dests.push_back({server_endpoint(to), std::move(regions)});
  }
  int sweeps = 0;
  while (!retiree->drained() && sweeps < kMaxDrainSweeps) {
    if (sweeps > 0) {
      ++stats_.drain_sweeps;
      co_await c.delay(kDrainPause);
    }
    ++sweeps;
    StagingServer::ResilverOutcome o = co_await retiree->drain_out(dests);
    stats_.resilver_chunks += o.chunks;
    stats_.resilver_bytes += o.bytes;
  }
  co_await retiree->handoff_redundancy();
  stats_.resilver_time_s +=
      (cluster_->engine().now() - resilver_start).seconds();
  resilver_active_ = false;

  ack.ok = retiree->drained();
  if (ack.ok) ++stats_.retires;
  ack.epoch = index_->epoch();
  track_.end(span);
  co_await rpc_.fulfill(c, req.reply_to, std::move(req.reply), ack);
}

sim::Task<void> GroupManager::handle_query(MembershipQuery req) {
  sim::Ctx c = ctx();
  co_await c.delay(kControlOverhead);
  MembershipInfo info;
  info.epoch = index_->epoch();
  info.active = index_->active_servers();
  co_await rpc_.fulfill(c, req.reply_to, std::move(req.reply),
                       std::move(info));
}

}  // namespace dstage::staging
