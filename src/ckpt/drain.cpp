#include "ckpt/drain.hpp"

#include <utility>
#include <variant>

#include "net/message.hpp"
#include "sim/spawn.hpp"

namespace dstage::ckpt {

using net::CkptDrainAck;
using net::CkptStoreLocal;
using net::CkptXorShard;

namespace {

/// The last pressure stall before a drain: at most seven stalls, 127 ms in
/// all, per drained set.
constexpr int kMaxBackoffMs = 64;

}  // namespace

DrainAgent::DrainAgent(cluster::Cluster& cluster, cluster::VprocId vproc,
                       cluster::Pfs& pfs, CheckpointHierarchy& hierarchy,
                       obs::Track track)
    : cluster_(&cluster),
      vproc_(vproc),
      pfs_(&pfs),
      hierarchy_(&hierarchy),
      rpc_(cluster.fabric(), cluster.vproc(vproc).endpoint),
      track_(track) {}

net::EndpointId DrainAgent::endpoint() const {
  return cluster_->vproc(vproc_).endpoint;
}

void DrainAgent::start() { sim::spawn(cluster_->engine(), run()); }

sim::Task<void> DrainAgent::run() {
  auto& ep = cluster_->fabric().endpoint(endpoint());
  sim::Ctx c = ctx();
  for (;;) {
    net::Packet packet = co_await ep.recv(c.tok);
    net::Message msg = std::move(packet.payload);
    if (auto* store = std::get_if<CkptStoreLocal>(&msg)) {
      // Level-0 bookkeeping only: the scheme wrote the cache entry into the
      // hierarchy synchronously; this notice just tells the drain the set
      // exists.
      ++stats_.store_notices;
      track_.emit(obs::Kind::kCkptStore, std::to_string(store->app),
                  static_cast<std::int64_t>(store->version));
    } else if (auto* shard = std::get_if<CkptXorShard>(&msg)) {
      // The parity distribution landed: the set is now partner-protected
      // and eligible for the background PFS flush.
      if (hierarchy_->encode_set(shard->app, static_cast<int>(shard->version))) {
        ++stats_.shards_encoded;
        track_.emit(obs::Kind::kCkptEncode, std::to_string(shard->app),
                    static_cast<std::int64_t>(shard->version),
                    static_cast<std::int64_t>(shard->nominal_bytes));
        // Zero-length marker span: encoding takes no agent-side virtual
        // time, but the trace should still show when parity landed.
        track_.end(track_.begin("encode", obs::Phase::kDrain));
        if (!draining_) {
          draining_ = true;
          sim::spawn(cluster_->engine(), drain_loop());
        }
      }
    }
    // Anything else is misrouted: the drain agent speaks only the ckpt
    // vocabulary, and dropping keeps it inert when the hierarchy is off.
  }
}

sim::Task<void> DrainAgent::drain_loop() {
  sim::Ctx c = ctx();
  while (auto next = hierarchy_->next_drain()) {
    // Yield to staging memory pressure: durability is background work, and
    // the governor's foreground puts win the PFS channel. The backoff
    // doubles from 1 ms and gives up after the 64 ms stall: only a
    // drain's ack advances the GC watermark and frees the log, so a
    // governor that stays loaded would otherwise stall the drain forever.
    int backoff = 1;
    while (backoff <= kMaxBackoffMs && pressure_ && pressure_() > 1.0) {
      ++stats_.pressure_stalls;
      co_await c.delay(sim::milliseconds(backoff));
      backoff *= 2;
    }
    hierarchy_->begin_drain(next->app, next->ts);
    const obs::SpanId span = track_.begin("drain", obs::Phase::kDrain);
    co_await pfs_->write(c, next->nominal_bytes);
    hierarchy_->complete_drain(next->app, next->ts);
    stats_.drain_bytes += next->nominal_bytes;
    track_.emit(obs::Kind::kCkptDrain, std::to_string(next->app),
                static_cast<std::int64_t>(next->ts),
                static_cast<std::int64_t>(next->nominal_bytes));
    track_.end(span);
    if (on_complete_) on_complete_(next->app, next->ts);
    // Durable promotion: only now may the staging GC watermark advance past
    // this checkpoint (the cached copy alone is not crash-consistent).
    for (net::EndpointId server : server_endpoints_) {
      co_await rpc_.send(
          c, server,
          net::Message{
              CkptDrainAck{next->app, static_cast<net::Version>(next->ts)}});
    }
  }
  draining_ = false;
}

}  // namespace dstage::ckpt
