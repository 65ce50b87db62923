// Frame budget of the request path: each hop of a staging request costs at
// most one coroutine frame, counted by sim::FramePool. A layer that adds a
// frame per request fails here instead of silently regrowing the run-time
// heap — at the 10k-server ceiling, in-flight requests hold most of the
// coroutine frames alive at the heap peak.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "cluster/cluster.hpp"
#include "dht/spatial_index.hpp"
#include "net/rpc.hpp"
#include "sim/frame_pool.hpp"
#include "sim/spawn.hpp"
#include "staging/client.hpp"
#include "staging/server.hpp"

namespace dstage {
namespace {

using sim::FramePool;

/// One staging server and one client, each on its own node. No logging
/// and no redundancy: a request touches nothing beyond its own path.
struct StagingRig {
  sim::Engine eng;
  net::Fabric fabric{eng, {}};
  cluster::Cluster cluster{eng, fabric};
  Box domain = Box::from_dims(16, 16, 16);
  dht::SpatialIndex index{domain, 1, 1};  // one cell: one piece per request
  std::vector<cluster::VprocId> server_vprocs;
  std::unique_ptr<staging::StagingServer> server;
  std::unique_ptr<staging::StagingClient> client;

  StagingRig() {
    auto vp = cluster.add_vproc("srv0", cluster.add_node());
    server_vprocs.push_back(vp);
    server = std::make_unique<staging::StagingServer>(
        cluster, vp, staging::ServerParams{});
    server->set_peers(0, {cluster.vproc(vp).endpoint});
    server->start();
    staging::ClientParams cp;
    cp.logged = false;
    client = std::make_unique<staging::StagingClient>(
        cluster, index, server_vprocs,
        cluster.add_vproc("app", cluster.add_node()), cp);
  }

  // The server loop waits on its mailbox forever: unwind it so its frames
  // are freed.
  ~StagingRig() {
    cluster.cancel_all();
    eng.run();
  }
};

TEST(FrameBudgetTest, RemotePutRoundTrip) {
  StagingRig rig;
  ASSERT_EQ(rig.index.place(rig.domain).size(), 1u);
  sim::FrameCounts frames;
  std::size_t pieces = 0;
  sim::spawn(rig.eng, [&]() -> sim::Task<void> {
    sim::Ctx ctx{&rig.eng, nullptr};
    FramePool::reset_counts();
    pieces = (co_await rig.client->put(ctx, "f", 1, rig.domain)).pieces;
    frames = FramePool::counts();
  });
  rig.eng.run();
  ASSERT_EQ(pieces, 1u);
  // Client: put, when_all, the child's root, the call, and its send while
  // on the NIC. Server: handle_put, apply_put, the response notification.
  EXPECT_LE(frames.allocated, 8u);
}

TEST(FrameBudgetTest, RemoteGetRoundTrip) {
  StagingRig rig;
  sim::FrameCounts frames;
  std::size_t pieces = 0;
  sim::spawn(rig.eng, [&]() -> sim::Task<void> {
    sim::Ctx ctx{&rig.eng, nullptr};
    co_await rig.client->put(ctx, "f", 1, rig.domain);
    FramePool::reset_counts();
    pieces = (co_await rig.client->get(ctx, "f", 1, rig.domain)).pieces.size();
    frames = FramePool::counts();
  });
  rig.eng.run();
  ASSERT_EQ(pieces, 1u);
  // Client: get, when_all, the child's root, the call, its send. Server:
  // handle_get, then the detached response — its root, respond_get and
  // the bulk transmit of the payload.
  EXPECT_LE(frames.allocated, 9u);
}

/// Peak live frames, above those alive before it started, of one when_all
/// fan-out of `n` calls from a client to a server process that answers
/// each one.
std::int64_t fan_out_peak(int n, bool same_node) {
  sim::Engine eng;
  net::Fabric fabric(eng, {});
  const net::NodeId client_node = fabric.add_node();
  const net::EndpointId client_ep = fabric.add_endpoint(client_node);
  const net::EndpointId server_ep =
      fabric.add_endpoint(same_node ? client_node : fabric.add_node());
  net::Rpc client(fabric, client_ep);
  net::Rpc server(fabric, server_ep);
  sim::spawn(eng, [&]() -> sim::Task<void> {
    sim::Ctx ctx{&eng, nullptr};
    for (int i = 0; i < n; ++i) {
      net::Packet pkt = co_await fabric.endpoint(server_ep).recv(nullptr);
      auto& req = std::get<net::QueryRequest>(pkt.payload);
      co_await server.fulfill(ctx, req.reply_to, std::move(req.reply),
                              net::QueryResponse{});
    }
  });
  std::int64_t peak = 0;
  std::size_t answered = 0;
  sim::spawn(eng, [&]() -> sim::Task<void> {
    sim::Ctx ctx{&eng, nullptr};
    FramePool::reset_counts();
    const std::int64_t before = FramePool::counts().live;
    std::vector<sim::Task<net::QueryResponse>> calls;
    for (int i = 0; i < n; ++i) {
      calls.push_back(client.call(ctx, server_ep, net::QueryRequest{}));
    }
    answered = (co_await sim::when_all(ctx, std::move(calls))).size();
    peak = FramePool::counts().peak - before;
  });
  eng.run();
  EXPECT_EQ(answered, static_cast<std::size_t>(n));
  return peak;
}

TEST(FrameBudgetTest, FanOutHoldsTwoFramesPerCall) {
  // Each call waits for its reply in two frames (its when_all root and the
  // call itself); a same-node send finishes without suspending. The
  // constant covers when_all's own frame and one send or response in flight.
  constexpr int kCalls = 64;
  EXPECT_LE(fan_out_peak(kCalls, /*same_node=*/true), 2 * kCalls + 3);
}

TEST(FrameBudgetTest, RemoteFanOutAddsOneSendFramePerQueuedCall) {
  // Across nodes every call's send waits its turn on the client's NIC, one
  // frame each.
  constexpr int kCalls = 64;
  EXPECT_LE(fan_out_peak(kCalls, /*same_node=*/false), 3 * kCalls + 3);
}

}  // namespace
}  // namespace dstage
