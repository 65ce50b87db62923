#include "probes.hpp"

#include <chrono>
#include <string>
#include <vector>

#include "dht/spatial_index.hpp"
#include "gc/garbage_collector.hpp"
#include "net/rpc.hpp"
#include "resilience/reed_solomon.hpp"
#include "sim/spawn.hpp"
#include "staging/object_store.hpp"
#include "util/stats.hpp"
#include "wlog/codec.hpp"
#include "wlog/data_log.hpp"

namespace dstage::benchmark {

namespace {

using Clock = std::chrono::steady_clock;

// Results are folded in here so the optimizer cannot drop a probed call.
volatile std::uint64_t g_sink = 0;

void keep(std::uint64_t v) { g_sink = g_sink + v; }

const std::string kVar = "field";

double ns_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

/// Median over `batches` of (time of one `batch()` call) / `calls`.
template <class Batch>
double median_ns_per_call(int batches, std::size_t calls, Batch batch) {
  SampleSet per_call;
  for (int b = 0; b < batches; ++b) {
    const auto t0 = Clock::now();
    batch();
    per_call.add(ns_since(t0) / static_cast<double>(calls));
  }
  return per_call.percentile(50);
}

/// Staging server 0's cell-clipped pieces of one whole-domain client put:
/// the chunk shape a server stores, logs, encodes and protects.
std::vector<Box> server_pieces(const core::WorkflowSpec& spec) {
  const dht::SpatialIndex index(spec.domain, spec.staging_servers,
                                spec.cells_per_axis);
  for (const dht::Placement& p : index.place(spec.domain)) {
    if (!p.pieces.empty()) return p.pieces;
  }
  return {spec.domain};
}

std::vector<staging::Chunk> make_version(const core::WorkflowSpec& spec,
                                         const std::vector<Box>& pieces,
                                         staging::Version v) {
  std::vector<staging::Chunk> out;
  out.reserve(pieces.size());
  for (const Box& piece : pieces) {
    out.push_back(staging::make_chunk(kVar, v, piece, spec.bytes_per_point,
                                      spec.mem_scale));
  }
  return out;
}

double probe_dispatch(int batches, int events) {
  return median_ns_per_call(batches, static_cast<std::size_t>(events), [&] {
    sim::Engine eng;
    std::uint64_t fired = 0;
    for (int i = 0; i < events; ++i) {
      eng.schedule_call(sim::microseconds(i), [&fired] { ++fired; });
    }
    keep(eng.run() + fired);
  });
}

double probe_rpc(const core::WorkflowSpec& spec, int batches, int calls) {
  return median_ns_per_call(batches, static_cast<std::size_t>(calls), [&] {
    sim::Engine eng;
    net::Fabric fabric(eng, spec.fabric);
    const auto client_ep = fabric.add_endpoint(fabric.add_node());
    const auto server_ep = fabric.add_endpoint(fabric.add_node());
    net::Rpc client(fabric, client_ep);
    net::Rpc server(fabric, server_ep);
    sim::spawn(eng, [&]() -> sim::Task<void> {
      sim::Ctx ctx{&eng, nullptr};
      for (int i = 0; i < calls; ++i) {
        net::Packet pkt = co_await fabric.endpoint(server_ep).recv(nullptr);
        auto& req = std::get<net::QueryRequest>(pkt.payload);
        net::QueryResponse resp;
        resp.store_versions = {1, 2};
        co_await server.fulfill(ctx, req.reply_to, std::move(req.reply),
                                std::move(resp));
      }
    });
    sim::spawn(eng, [&]() -> sim::Task<void> {
      sim::Ctx ctx{&eng, nullptr};
      for (int i = 0; i < calls; ++i) {
        net::QueryRequest req;
        req.var = kVar;
        auto resp = co_await client.call(ctx, server_ep, std::move(req));
        keep(resp.store_versions.size());
      }
    });
    keep(eng.run());
  });
}

}  // namespace

ProbeTimes run_probes(const core::WorkflowSpec& spec, bool quick) {
  const int batches = quick ? 3 : 9;
  const int versions = 5;  // log depth between two checkpoint sweeps
  const std::vector<Box> pieces = server_pieces(spec);
  const wlog::codec::Scheme codec = spec.wlog.codec;

  ProbeTimes t;
  t.dispatch_ns = probe_dispatch(batches, quick ? 2000 : 20000);
  t.rpc_ns = probe_rpc(spec, batches, quick ? 64 : 512);

  {
    const dht::SpatialIndex index(spec.domain, spec.staging_servers,
                                  spec.cells_per_axis);
    t.place_ns = median_ns_per_call(batches, 1, [&] {
      keep(index.place(spec.domain).size());
    });
  }

  std::vector<std::vector<staging::Chunk>> history;
  for (staging::Version v = 1; v <= versions; ++v) {
    history.push_back(make_version(spec, pieces, v));
  }
  const std::size_t per_version = pieces.size();

  {
    SampleSet put_ns, get_ns;
    for (int b = 0; b < batches; ++b) {
      staging::ObjectStore store(spec.server.version_window);
      auto chunks = history;  // copies share payload buffers
      const auto t0 = Clock::now();
      for (auto& version : chunks) {
        for (staging::Chunk& c : version) store.put(std::move(c));
      }
      put_ns.add(ns_since(t0) / static_cast<double>(versions * per_version));
      const auto t1 = Clock::now();
      for (const staging::Chunk& c : history.back()) {
        keep(store.get(kVar, c.version, c.region).size());
      }
      get_ns.add(ns_since(t1) / static_cast<double>(per_version));
    }
    t.store_put_ns = put_ns.percentile(50);
    t.store_get_ns = get_ns.percentile(50);
  }

  {
    const auto& base = history[versions - 2];
    const auto& next = history[versions - 1];
    std::vector<std::vector<std::uint8_t>> blocks(per_version);
    t.encode_ns = median_ns_per_call(batches, per_version, [&] {
      for (std::size_t i = 0; i < per_version; ++i) {
        blocks[i] = wlog::codec::encode(*next[i].data, codec, *base[i].data,
                                        versions - 1);
      }
    });
    t.decode_ns = median_ns_per_call(batches, per_version, [&] {
      for (std::size_t i = 0; i < per_version; ++i) {
        keep(wlog::codec::decode(blocks[i], *base[i].data).raw.size());
      }
    });
  }

  {
    SampleSet sweep_us;
    for (int b = 0; b < batches; ++b) {
      gc::GarbageCollector gc;
      gc.register_var(kVar, {{0, true}});
      gc.on_checkpoint(0, versions);
      wlog::DataLog log;
      log.set_codec(codec);
      for (const auto& version : history) {
        for (const staging::Chunk& c : version) log.add(c);
      }
      const auto t0 = Clock::now();
      const gc::SweepResult swept = gc.sweep(log);
      sweep_us.add(ns_since(t0) / 1e3);
      t.sweep_dropped = static_cast<double>(swept.versions_dropped);
    }
    t.sweep_us = sweep_us.percentile(50);
  }

  {
    const resilience::ReedSolomon rs(2, 1);
    t.rs_encode_ns = median_ns_per_call(batches, per_version, [&] {
      for (const staging::Chunk& c : history.back()) {
        keep(rs.encode(*c.data).size());
      }
    });
  }
  return t;
}

}  // namespace dstage::benchmark
