// Frame budget of the request path, counted by sim::FramePool: a fan-out of
// N calls holds one coroutine frame whatever N is (each call is a slot in
// one array, its sends awaited or posted transfers), and a server handler
// awaits its response in its own frame. A layer that adds a frame per call
// fails here instead of silently regrowing the run-time heap — at the
// 10k-server ceiling, in-flight calls held most of the coroutine frames
// alive at the heap peak.
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
  // Client: put and its call_all fan-out. Server: handle_put and
  // apply_put. The call, its send and the response notification are
  // frame-free.
  EXPECT_LE(frames.allocated, 4u);
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
  // Client: get and its call_all fan-out. Server: handle_get, then the
  // detached response — its root and respond_get, which awaits the
  // payload's bulk transfer in its own frame.
  EXPECT_LE(frames.allocated, 5u);
}

/// Peak live frames, above those alive before it started, of one call_all
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
    std::vector<net::Addressed<net::QueryRequest>> calls(
        static_cast<std::size_t>(n), {server_ep, net::QueryRequest{}});
    answered = (co_await client.call_all(ctx, std::move(calls))).size();
    peak = FramePool::counts().peak - before;
  });
  eng.run();
  EXPECT_EQ(answered, static_cast<std::size_t>(n));
  return peak;
}

TEST(FrameBudgetTest, FanOutPeakIsIndependentOfItsWidth) {
  // Every call waits for its reply in its slot, not in a frame; a
  // same-node send finishes without suspending. The fan-out's own frame
  // is the whole cost, and the server's responses add none.
  const std::int64_t narrow = fan_out_peak(16, /*same_node=*/true);
  EXPECT_EQ(fan_out_peak(256, /*same_node=*/true), narrow);
  EXPECT_LE(narrow, 1);
}

TEST(FrameBudgetTest, RemoteFanOutQueuesOnTheNicWithoutFrames) {
  // Across nodes every call's send waits its turn on the client's NIC in
  // the NIC's FIFO, as its slot: still no frame per call.
  const std::int64_t narrow = fan_out_peak(16, /*same_node=*/false);
  EXPECT_EQ(fan_out_peak(256, /*same_node=*/false), narrow);
  EXPECT_LE(narrow, 1);
}

}  // namespace
}  // namespace dstage
