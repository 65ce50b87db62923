// Micro-benchmarks (google-benchmark) for the building blocks under the
// workflow harness: DES engine throughput, coroutine frame churn, Hilbert
// mapping, spatial placement, fabric round-trips through the typed RPC
// transport and their call_all fan-out (with its frames per call), remote
// one-way sends, event-recorder emits, object-store
// operations, event-queue bookkeeping, GF(256) arithmetic, and Reed–Solomon
// encode/decode.
#include <benchmark/benchmark.h>

#include "dht/spatial_index.hpp"
#include "gc/garbage_collector.hpp"
#include "net/rpc.hpp"
#include "obs/recorder.hpp"
#include "resilience/reed_solomon.hpp"
#include "sim/channel.hpp"
#include "sim/frame_pool.hpp"
#include "sim/spawn.hpp"
#include "staging/object_store.hpp"
#include "util/hilbert.hpp"
#include "util/rng.hpp"
#include "wlog/event_queue.hpp"

namespace {

using namespace dstage;

void BM_EngineScheduleDispatch(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine eng;
    for (int i = 0; i < 1000; ++i) {
      eng.schedule_call(sim::microseconds(i), [] {});
    }
    benchmark::DoNotOptimize(eng.run());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
  // Headline DES hot-path metric, gated by tools/bench_compare in CI.
  state.counters["events_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations() * 1000),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EngineScheduleDispatch);

void BM_CoroutinePingPong(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine eng;
    sim::Channel<int> a(eng), b(eng);
    sim::spawn(eng, [](sim::Channel<int>* in,
                       sim::Channel<int>* out) -> sim::Task<void> {
      for (int i = 0; i < 500; ++i) {
        int v = co_await in->recv(nullptr);
        out->send(v + 1);
      }
    }(&a, &b));
    sim::spawn(eng, [](sim::Channel<int>* in,
                       sim::Channel<int>* out) -> sim::Task<void> {
      out->send(0);
      for (int i = 0; i < 500; ++i) {
        int v = co_await in->recv(nullptr);
        if (i + 1 < 500) out->send(v + 1);
      }
    }(&b, &a));
    benchmark::DoNotOptimize(eng.run());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
  state.counters["events_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations() * 1000),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CoroutinePingPong);

// Host-side wall-clock throughput of a full typed RPC round trip across
// the fabric (request in the mailbox, response over the control path).
void BM_FabricRpcRoundTrip(benchmark::State& state) {
  constexpr int kCalls = 256;
  for (auto _ : state) {
    sim::Engine eng;
    net::Fabric fabric(eng, {});
    const auto n0 = fabric.add_node();
    const auto n1 = fabric.add_node();
    const auto client_ep = fabric.add_endpoint(n0);
    const auto server_ep = fabric.add_endpoint(n1);
    net::Rpc client(fabric, client_ep);
    net::Rpc server(fabric, server_ep);
    sim::spawn(eng, [&]() -> sim::Task<void> {
      sim::Ctx ctx{&eng, nullptr};
      for (int i = 0; i < kCalls; ++i) {
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
      for (int i = 0; i < kCalls; ++i) {
        net::QueryRequest req;
        req.var = "f";
        auto resp = co_await client.call(ctx, server_ep, std::move(req));
        benchmark::DoNotOptimize(resp.store_versions.size());
      }
    });
    benchmark::DoNotOptimize(eng.run());
  }
  state.SetItemsProcessed(state.iterations() * kCalls);
}
BENCHMARK(BM_FabricRpcRoundTrip);

// Rpc::call_all over N typed RPC round trips from one client to a server
// on another node: the fan-out shape of a staging put or get. Besides
// throughput it reports the coroutine frames each call allocates, server
// side included, and the frames alive at the peak per call
// (sim::FramePool's counters): the fan-out is one frame whatever N is, so
// both fall as N grows.
void BM_RpcFanOut(benchmark::State& state) {
  const int calls = static_cast<int>(state.range(0));
  sim::FramePool::reset_counts();
  const std::int64_t live_before = sim::FramePool::counts().live;
  for (auto _ : state) {
    sim::Engine eng;
    net::Fabric fabric(eng, {});
    const auto client_ep = fabric.add_endpoint(fabric.add_node());
    const auto server_ep = fabric.add_endpoint(fabric.add_node());
    net::Rpc client(fabric, client_ep);
    net::Rpc server(fabric, server_ep);
    sim::spawn(eng, [&]() -> sim::Task<void> {
      sim::Ctx ctx{&eng, nullptr};
      for (int i = 0; i < calls; ++i) {
        net::Packet pkt = co_await fabric.endpoint(server_ep).recv(nullptr);
        auto& req = std::get<net::QueryRequest>(pkt.payload);
        co_await server.fulfill(ctx, req.reply_to, std::move(req.reply),
                                net::QueryResponse{});
      }
    });
    sim::spawn(eng, [&]() -> sim::Task<void> {
      sim::Ctx ctx{&eng, nullptr};
      std::vector<net::Addressed<net::QueryRequest>> sends;
      sends.reserve(static_cast<std::size_t>(calls));
      for (int i = 0; i < calls; ++i) {
        net::QueryRequest req;
        req.var = "f";
        sends.push_back({server_ep, std::move(req)});
      }
      auto resps = co_await client.call_all(ctx, std::move(sends));
      benchmark::DoNotOptimize(resps.size());
    });
    benchmark::DoNotOptimize(eng.run());
  }
  const sim::FrameCounts frames = sim::FramePool::counts();
  const double total = static_cast<double>(state.iterations()) * calls;
  state.counters["frames_per_call"] =
      static_cast<double>(frames.allocated) / total;
  state.counters["peak_frames_per_call"] =
      static_cast<double>(frames.peak - live_before) / calls;
  state.SetItemsProcessed(state.iterations() * calls);
}
BENCHMARK(BM_RpcFanOut)->Arg(16)->Arg(256);

// Coroutine frame churn: a nested create/await/destroy Task chain, the
// shape of every RPC handler calling into helpers. Frames cycle through the
// thread-local frame pool.
sim::Task<int> frame_chain(int depth) {
  if (depth == 0) co_return 0;
  co_return 1 + co_await frame_chain(depth - 1);
}

void BM_TaskFrameChurn(benchmark::State& state) {
  constexpr int kDepth = 8;
  constexpr int kChains = 128;
  sim::Engine eng;
  for (auto _ : state) {
    int total = 0;
    sim::spawn(eng, [&]() -> sim::Task<void> {
      for (int i = 0; i < kChains; ++i) total += co_await frame_chain(kDepth);
    });
    eng.run();
    benchmark::DoNotOptimize(total);
  }
  // Items are frames: one chain allocates depth + 1 of them.
  state.SetItemsProcessed(state.iterations() * kChains * (kDepth + 1));
}
BENCHMARK(BM_TaskFrameChurn);

// One-way cross-node sends through the NIC path: injection on the source
// NIC, then a delivery call frame that owns the packet.
void BM_FabricSendRemote(benchmark::State& state) {
  constexpr int kSends = 256;
  for (auto _ : state) {
    sim::Engine eng;
    net::Fabric fabric(eng, {});
    const auto src = fabric.add_endpoint(fabric.add_node());
    const auto dst = fabric.add_endpoint(fabric.add_node());
    sim::spawn(eng, [&]() -> sim::Task<void> {
      sim::Ctx ctx{&eng, nullptr};
      for (int i = 0; i < kSends; ++i) {
        net::FragmentPrune prune;
        prune.owner = 1;
        prune.var = "f";
        prune.upto = static_cast<staging::Version>(i);
        net::Message msg{std::move(prune)};
        co_await fabric.send(ctx, src, dst, std::move(msg));
      }
    });
    sim::spawn(eng, [&]() -> sim::Task<void> {
      for (int i = 0; i < kSends; ++i) {
        net::Packet pkt = co_await fabric.endpoint(dst).recv(nullptr);
        benchmark::DoNotOptimize(pkt.bytes);
      }
    });
    benchmark::DoNotOptimize(eng.run());
  }
  state.SetItemsProcessed(state.iterations() * kSends);
}
BENCHMARK(BM_FabricSendRemote);

// One instrumentation call through the event vocabulary, on a recorder with
// one track per staging server of the ceiling_10k cell. Arg 0: a ring-only
// kind (put-admit) — the per-request flight-recorder cost. Arg 1: a
// digest-visible kind (read-done), which appends to the digest trace
// instead; the trace grows with every call, so the run length is fixed.
// Arg 2: a subscriber-only kind (store-drop) with no subscriber installed —
// what each such event costs a plain run.
void BM_TrackEmit(benchmark::State& state) {
  constexpr int kTracks = 10000;
  constexpr obs::Kind kKinds[] = {obs::Kind::kPutAdmit, obs::Kind::kReadDone,
                                  obs::Kind::kStoreDrop};
  const obs::Kind kind = kKinds[state.range(0)];
  sim::Engine eng;
  obs::Recorder rec(eng);
  std::vector<obs::Track> tracks;
  tracks.reserve(kTracks);
  for (int t = 0; t < kTracks; ++t) {
    tracks.push_back(rec.track("staging-" + std::to_string(t)));
  }
  const std::string var = "field";
  std::size_t t = 0;
  std::int64_t n = 0;
  for (auto _ : state) {
    tracks[t].emit(kind, var, n, n);
    if (++t == tracks.size()) t = 0;
    ++n;
  }
  benchmark::DoNotOptimize(rec.events_recorded() + rec.trace().size());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TrackEmit)->Arg(0);
BENCHMARK(BM_TrackEmit)->Arg(1)->Iterations(1 << 19);
BENCHMARK(BM_TrackEmit)->Arg(2);

void BM_PayloadEnvelopeTyped(benchmark::State& state) {
  for (auto _ : state) {
    net::FragmentPrune prune;
    prune.owner = 1;
    prune.var = "field";
    prune.upto = 7;
    net::Message envelope{std::move(prune)};
    auto& out = std::get<net::FragmentPrune>(envelope);
    benchmark::DoNotOptimize(out.upto);
  }
}
BENCHMARK(BM_PayloadEnvelopeTyped);

void BM_HilbertIndexOf(benchmark::State& state) {
  HilbertCurve curve(static_cast<int>(state.range(0)));
  Rng rng(1);
  const std::uint32_t mask = (1u << state.range(0)) - 1;
  for (auto _ : state) {
    const auto v = rng.next_u64();
    benchmark::DoNotOptimize(curve.index_of(
        static_cast<std::uint32_t>(v) & mask,
        static_cast<std::uint32_t>(v >> 20) & mask,
        static_cast<std::uint32_t>(v >> 40) & mask));
  }
}
BENCHMARK(BM_HilbertIndexOf)->Arg(4)->Arg(8)->Arg(16);

void BM_SpatialPlace(benchmark::State& state) {
  dht::SpatialIndex index(Box::from_dims(512, 512, 256),
                          static_cast<int>(state.range(0)), 8);
  Box query{{17, 33, 9}, {430, 401, 200}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.place(query));
  }
}
BENCHMARK(BM_SpatialPlace)->Arg(4)->Arg(16)->Arg(64);

// place() and server_of() against a map that lived through a grow/shrink
// episode (joins + retires fragment the curve segments).
void BM_DhtEpochLookup(benchmark::State& state) {
  const int servers = static_cast<int>(state.range(0));
  dht::SpatialIndex index(Box::from_dims(512, 512, 256), servers, 8);
  // Grow by two, shrink back: the constructor's active count, with
  // ownership assigned across four epochs of minimal-motion moves.
  benchmark::DoNotOptimize(index.add_server(servers));
  benchmark::DoNotOptimize(index.add_server(servers + 1));
  benchmark::DoNotOptimize(index.remove_server(0));
  benchmark::DoNotOptimize(index.remove_server(1));
  Box query{{17, 33, 9}, {430, 401, 200}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.place(query));
    benchmark::DoNotOptimize(index.server_of({100, 200, 50}));
  }
}
BENCHMARK(BM_DhtEpochLookup)->Arg(4)->Arg(16);

void BM_ObjectStorePutGet(benchmark::State& state) {
  const Box region = Box::from_dims(64, 64, 64);
  for (auto _ : state) {
    staging::ObjectStore store(2);
    for (staging::Version v = 1; v <= 16; ++v) {
      store.put(staging::make_chunk("f", v, region, 8.0, 65536));
      benchmark::DoNotOptimize(store.get("f", v, region));
    }
  }
  state.SetItemsProcessed(state.iterations() * 16);
}
BENCHMARK(BM_ObjectStorePutGet);

void BM_EventQueueRecordTruncate(benchmark::State& state) {
  const auto events = state.range(0);
  for (auto _ : state) {
    wlog::EventQueue q;
    for (std::int64_t i = 0; i < events; ++i) {
      q.record(wlog::LogEvent{wlog::EventKind::kPut, 0,
                              static_cast<staging::Version>(i), "f",
                              Box::from_dims(8, 8, 8), 512, 0});
    }
    q.record(wlog::LogEvent{wlog::EventKind::kCheckpoint, 0,
                            static_cast<staging::Version>(events), {},
                            Box{}, 0, 1});
    benchmark::DoNotOptimize(q.truncate_before_last_checkpoint());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventQueueRecordTruncate)->Arg(64)->Arg(1024);

void BM_GcSweep(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    gc::GarbageCollector gc;
    gc.register_var("f", {{1, true}});
    gc.on_checkpoint(1, 48);
    wlog::DataLog log;
    for (staging::Version v = 1; v <= 64; ++v)
      log.add(staging::make_chunk("f", v, Box::from_dims(16, 16, 16), 8.0,
                                  65536));
    state.ResumeTiming();
    benchmark::DoNotOptimize(gc.sweep(log));
  }
}
BENCHMARK(BM_GcSweep);

void BM_Gf256MulAdd(benchmark::State& state) {
  const auto& gf = resilience::gf256();
  std::vector<std::uint8_t> dst(static_cast<std::size_t>(state.range(0)));
  std::vector<std::uint8_t> src(dst.size());
  Rng rng(5);
  for (auto& b : src) b = static_cast<std::uint8_t>(rng.uniform_u64(0, 255));
  for (auto _ : state) {
    gf.mul_add(dst, src, 0x8e);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Gf256MulAdd)->Arg(4096)->Arg(1 << 20);

void BM_ReedSolomonEncode(benchmark::State& state) {
  resilience::ReedSolomon rs(static_cast<int>(state.range(0)),
                             static_cast<int>(state.range(1)));
  std::vector<std::uint8_t> data(1 << 20);
  Rng rng(6);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_u64());
  for (auto _ : state) {
    benchmark::DoNotOptimize(rs.encode(data));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_ReedSolomonEncode)->Args({4, 2})->Args({8, 4});

void BM_ReedSolomonDecodeWithErasures(benchmark::State& state) {
  resilience::ReedSolomon rs(4, 2);
  std::vector<std::uint8_t> data(1 << 20);
  Rng rng(7);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_u64());
  auto shards = rs.encode(data);
  shards[1].clear();
  shards[4].clear();
  for (auto _ : state) {
    benchmark::DoNotOptimize(rs.decode(shards, data.size()));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_ReedSolomonDecodeWithErasures);

}  // namespace

BENCHMARK_MAIN();
