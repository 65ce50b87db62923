#include "staging/spill_gateway.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <utility>
#include <variant>

#include "sim/spawn.hpp"
#include "staging/tenant.hpp"
#include "wlog/codec.hpp"

namespace dstage::staging {

SpillGateway::SpillGateway(cluster::Cluster& cluster, cluster::VprocId vproc,
                           cluster::Pfs& pfs, obs::Track track)
    : cluster_(&cluster),
      vproc_(vproc),
      pfs_(&pfs),
      rpc_(cluster.fabric(), cluster.vproc(vproc).endpoint),
      track_(track) {}

net::EndpointId SpillGateway::endpoint() const {
  return cluster_->vproc(vproc_).endpoint;
}

void SpillGateway::start() { sim::spawn(cluster_->engine(), run()); }

sim::Task<void> SpillGateway::run() {
  auto& ep = cluster_->fabric().endpoint(endpoint());
  sim::Ctx c = ctx();
  for (;;) {
    net::Packet packet = co_await ep.recv(c.tok);
    net::Message msg = std::move(packet.payload);
    if (auto* put = std::get_if<SpillPut>(&msg)) {
      co_await handle_put(std::move(*put));
    } else if (auto* fetch = std::get_if<SpillFetch>(&msg)) {
      co_await handle_fetch(std::move(*fetch));
    } else if (auto* prune = std::get_if<SpillPrune>(&msg)) {
      handle_prune(*prune);
    }
    // Anything else is misrouted: the gateway speaks only the spill
    // vocabulary, and dropping keeps it inert for non-governed runs.
  }
}

sim::Task<void> SpillGateway::handle_put(SpillPut put) {
  sim::Ctx c = ctx();
  // Encoded log blocks spill at their encoded size: the PFS write (and the
  // spill accounting) should see the codec's savings, not the raw size.
  const std::uint64_t bytes = put.chunk.accounted_bytes();
  const obs::SpanId span = track_.begin("spill", obs::Phase::kSpill);
  track_.emit(obs::Kind::kSpillOut, put.chunk.var,
              static_cast<std::int64_t>(put.chunk.version),
              static_cast<std::int64_t>(bytes));
  // Persisting the evicted chunk is a real PFS write: it queues on the
  // same FIFO channel as checkpoint traffic.
  co_await pfs_->write(c, bytes);
  auto [it, inserted] = per_owner_.try_emplace(put.owner, 1 << 30);
  it->second.put(std::move(put.chunk));
  ++stats_.spill_puts;
  stats_.spill_bytes += bytes;
  track_.end(span);
  co_await rpc_.fulfill(c, put.reply_to, std::move(put.reply), SpillAck{true});
}

sim::Task<void> SpillGateway::handle_fetch(SpillFetch fetch) {
  sim::Ctx c = ctx();
  SpillFetchResponse resp;
  std::uint64_t bytes = 0;
  if (auto it = per_owner_.find(fetch.owner); it != per_owner_.end()) {
    resp.chunks = it->second.chunks_of(fetch.var, fetch.version);
    for (const Chunk& chunk : resp.chunks) bytes += chunk.accounted_bytes();
  }
  const obs::SpanId span = track_.begin("fetch-back", obs::Phase::kSpill);
  track_.emit(obs::Kind::kSpillFetch, fetch.var,
              static_cast<std::int64_t>(fetch.version),
              static_cast<std::int64_t>(bytes));
  // Reading the spill file back is a real PFS read. The file stays put —
  // reclamation is the owner's explicit SpillPrune, mirroring how GC (not
  // reads) retires log versions.
  if (bytes > 0) co_await pfs_->read(c, bytes);
  ++stats_.fetches;
  stats_.fetch_bytes += bytes;
  track_.end(span);
  co_await rpc_.fulfill(c, fetch.reply_to, std::move(fetch.reply),
                        std::move(resp));
}

void SpillGateway::handle_prune(const SpillPrune& prune) {
  auto it = per_owner_.find(prune.owner);
  if (it == per_owner_.end()) return;
  ObjectStore& store = it->second;
  std::size_t dropped = 0;
  if (prune.above) {
    // Rollback: discard spilled versions newer than the snapshot (empty
    // var = every variable, matching the staging rollback semantics). A
    // tenant-scoped rollback (tenant >= 0) must leave co-resident tenants'
    // spill files untouched — their durability does not depend on another
    // workflow's restart.
    dropped = store.drop_versions_above(
        prune.upto, [&](const std::string& var) {
          return prune.tenant < 0 || tenant_of(var) == prune.tenant;
        });
  } else {
    for (Version v : store.versions_of(prune.var)) {
      if (v > prune.upto) break;
      if (store.drop_version(prune.var, v)) ++dropped;
    }
  }
  stats_.pruned_versions += dropped;
}

std::vector<std::string> SpillGateway::variables() const {
  std::vector<std::string> out;
  for (const auto& [owner, store] : per_owner_) {
    for (std::string& var : store.variables()) {
      if (std::find(out.begin(), out.end(), var) == out.end())
        out.push_back(std::move(var));
    }
  }
  return out;
}

std::vector<Version> SpillGateway::versions_of(const std::string& var) const {
  std::vector<Version> out;
  for (const auto& [owner, store] : per_owner_) {
    for (Version v : store.versions_of(var)) {
      if (std::find(out.begin(), out.end(), v) == out.end()) out.push_back(v);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<Chunk> SpillGateway::get(const std::string& var, Version version,
                                     const Box& region) const {
  std::vector<Chunk> out;
  for (const auto& [owner, store] : per_owner_) {
    for (Chunk& chunk : store.get(var, version, region)) {
      if (chunk.data && wlog::codec::is_encoded(*chunk.data)) {
        // Spilled log blocks are exported self-contained (full, never
        // delta), so they decode without a base. The oracle's durability
        // union compares raw bytes; never hand it an encoded block.
        wlog::codec::DecodeResult decoded = wlog::codec::decode(*chunk.data);
        if (!decoded.ok()) {
          throw std::runtime_error(
              std::string("spill gateway: decode failed (") +
              wlog::codec::codec_error_name(*decoded.error) + ") for " +
              chunk.var + " v" + std::to_string(chunk.version));
        }
        chunk.data = std::make_shared<std::vector<std::uint8_t>>(
            std::move(decoded.raw));
        chunk.stored_bytes = 0;
      }
      out.push_back(std::move(chunk));
    }
  }
  return out;
}

std::uint64_t SpillGateway::nominal_bytes() const {
  std::uint64_t total = 0;
  for (const auto& [owner, store] : per_owner_) total += store.nominal_bytes();
  return total;
}

}  // namespace dstage::staging
