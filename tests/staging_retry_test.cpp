// Client-side retry semantics over the typed RPC transport: exhausted
// retries surface an error instead of hanging the workflow, a retried put
// whose original landed is acknowledged idempotently, and replayed puts
// are suppressed exactly once.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "cluster/cluster.hpp"
#include "dht/spatial_index.hpp"
#include "sim/spawn.hpp"
#include "staging/client.hpp"
#include "staging/server.hpp"

namespace dstage::staging {
namespace {

struct Rig {
  sim::Engine eng;
  net::Fabric fabric{eng, {}};
  cluster::Cluster cluster{eng, fabric};
  Box domain = Box::from_dims(32, 32, 32);
  dht::SpatialIndex index{domain, 1, 8};
  std::vector<cluster::VprocId> server_vprocs;
  std::unique_ptr<StagingServer> server;

  explicit Rig(bool start_server) {
    ServerParams sp;
    sp.logging = true;
    auto vp = cluster.add_vproc("srv0", cluster.add_node());
    server_vprocs.push_back(vp);
    server = std::make_unique<StagingServer>(cluster, vp, sp);
    server->register_var("f", {{1, true}});
    server->set_peers(0, {cluster.vproc(vp).endpoint});
    if (start_server) server->start();
  }

  std::unique_ptr<StagingClient> make_client(ClientParams cp) {
    auto vp = cluster.add_vproc("app", cluster.add_node());
    cp.logged = true;
    cp.mem_scale = 4096;
    return std::make_unique<StagingClient>(cluster, index, server_vprocs,
                                           vp, cp);
  }

  // Server loops wait on their mailboxes forever: unwind every parked
  // process so its coroutine frames are freed.
  ~Rig() {
    cluster.cancel_all();
    eng.run();
  }
};

TEST(StagingRetryTest, ExhaustedRetriesSurfaceAnError) {
  // The server never serves its mailbox: every attempt times out, and
  // after max_retries the put must fail loudly rather than hang forever.
  Rig rig(/*start_server=*/false);
  ClientParams cp;
  cp.app = 0;
  cp.put_timeout = sim::seconds(1);
  cp.max_retries = 2;
  auto producer = rig.make_client(cp);

  bool threw = false;
  sim::spawn(rig.eng, [&]() -> sim::Task<void> {
    sim::Ctx ctx{&rig.eng, nullptr};
    try {
      (void)co_await producer->put(ctx, "f", 1, rig.domain);
    } catch (const std::runtime_error&) {
      threw = true;
    }
  });
  rig.eng.run();
  EXPECT_TRUE(threw);
  EXPECT_GE(producer->rpc_stats().exhausted, 1u);
  EXPECT_GE(producer->rpc_stats().retries, 1u);
  EXPECT_EQ(producer->rpc_stats().responses, 0u);
}

TEST(StagingRetryTest, RetriedPutWhoseOriginalLandedIsIdempotent) {
  // A retransmitted put (response lost, payload already staged) re-executes
  // the request; the server recognizes the identical chunk and acks without
  // re-applying or re-logging it.
  Rig rig(/*start_server=*/true);
  ClientParams cp;
  cp.app = 0;
  auto producer = rig.make_client(cp);

  PutResult first, second;
  sim::spawn(rig.eng, [&]() -> sim::Task<void> {
    sim::Ctx ctx{&rig.eng, nullptr};
    first = co_await producer->put(ctx, "f", 1, rig.domain);
    second = co_await producer->put(ctx, "f", 1, rig.domain);
  });
  rig.eng.run();

  EXPECT_GT(first.pieces, 0u);
  EXPECT_EQ(second.pieces, first.pieces);
  EXPECT_EQ(second.suppressed, 0u);  // not a replay — just a duplicate
  // Both rounds hit the server, but the store and log hold one copy.
  EXPECT_EQ(rig.server->stats().puts, 2 * first.pieces);
  const auto one_copy =
      static_cast<std::uint64_t>(rig.domain.volume()) * 8u;
  EXPECT_EQ(rig.server->data_log().nominal_bytes(), one_copy);
  EXPECT_EQ(rig.server->store().nominal_bytes(), one_copy);
}

TEST(StagingRetryTest, ReplayedPutIsSuppressedExactlyOnce) {
  Rig rig(/*start_server=*/true);
  ClientParams cp;
  cp.app = 0;
  auto producer = rig.make_client(cp);

  PutResult original, replayed, after_replay;
  std::size_t replay_events = 0;
  sim::spawn(rig.eng, [&]() -> sim::Task<void> {
    sim::Ctx ctx{&rig.eng, nullptr};
    original = co_await producer->put(ctx, "f", 1, rig.domain);
    // The app restarts from scratch and re-executes the same timestep:
    // the logged script suppresses the duplicate writes...
    replay_events = co_await producer->workflow_restart(ctx, 0);
    replayed = co_await producer->put(ctx, "f", 1, rig.domain);
    // ...and only them: the same request issued again after the script is
    // consumed is handled as a fresh (idempotent) duplicate.
    after_replay = co_await producer->put(ctx, "f", 1, rig.domain);
  });
  rig.eng.run();

  EXPECT_EQ(replay_events, original.pieces);
  EXPECT_EQ(replayed.suppressed, original.pieces);
  EXPECT_EQ(after_replay.suppressed, 0u);
  EXPECT_EQ(rig.server->stats().puts_suppressed, original.pieces);
  const auto one_copy =
      static_cast<std::uint64_t>(rig.domain.volume()) * 8u;
  EXPECT_EQ(rig.server->data_log().nominal_bytes(), one_copy);
}

}  // namespace
}  // namespace dstage::staging
