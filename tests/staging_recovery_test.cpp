// Staging-service resilience (CoREC layer) on a fixed group: redundancy
// fragments on peer servers are pruned once checkpoints pass them, an
// undersized group says so when its placement wraps, and the client's
// degraded probe fails requests to a server that will not come back fast
// and with a distinct error. (Reconstructing a lost server's pieces from
// its fragments is degraded_read_test and staging_elastic_test.)
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "dht/spatial_index.hpp"
#include "sim/spawn.hpp"
#include "staging/client.hpp"
#include "staging/server.hpp"

namespace dstage::staging {
namespace {

ServerParams params_with(resilience::Redundancy kind) {
  ServerParams p;
  p.logging = true;
  p.policy.kind = kind;
  p.policy.replicas = 2;
  p.policy.rs_k = 4;
  p.policy.rs_m = 2;
  return p;
}

struct Rig {
  sim::Engine eng;
  net::Fabric fabric{eng, {}};
  cluster::Cluster cluster{eng, fabric};
  Box domain = Box::from_dims(64, 64, 64);
  dht::SpatialIndex index;
  std::vector<cluster::VprocId> server_vprocs;
  std::vector<std::unique_ptr<StagingServer>> servers;

  Rig(int nservers, ServerParams params) : index(domain, nservers, 8) {
    for (int s = 0; s < nservers; ++s) {
      auto vp = cluster.add_vproc("srv" + std::to_string(s),
                                  cluster.add_node());
      server_vprocs.push_back(vp);
      servers.push_back(std::make_unique<StagingServer>(cluster, vp, params));
      servers.back()->register_var("f", {{1, true}});
    }
    std::vector<net::EndpointId> endpoints;
    for (auto vp : server_vprocs)
      endpoints.push_back(cluster.vproc(vp).endpoint);
    for (std::size_t s = 0; s < servers.size(); ++s) {
      servers[s]->set_peers(static_cast<int>(s), endpoints);
      servers[s]->start();
    }
  }

  std::unique_ptr<StagingClient> make_client(AppId app) {
    auto vp =
        cluster.add_vproc("app" + std::to_string(app), cluster.add_node());
    ClientParams cp;
    cp.app = app;
    cp.logged = true;
    cp.mem_scale = 4096;
    cp.put_timeout = sim::seconds(15);
    cp.get_timeout = sim::seconds(30);
    return std::make_unique<StagingClient>(cluster, index, server_vprocs,
                                           vp, cp);
  }

  void run() { eng.run(); }

  // Server loops wait on their mailboxes forever: unwind every parked
  // process so its coroutine frames are freed.
  ~Rig() {
    cluster.cancel_all();
    eng.run();
  }
};

TEST(StagingRecoveryTest, FragmentsPrunedAtCheckpoints) {
  Rig rig(2, params_with(resilience::Redundancy::kReplication));
  auto producer = rig.make_client(0);
  auto consumer = rig.make_client(1);
  std::uint64_t before = 0, after = 0;
  sim::spawn(rig.eng, [&]() -> sim::Task<void> {
    sim::Ctx ctx{&rig.eng, nullptr};
    for (Version v = 1; v <= 6; ++v) {
      co_await producer->put(ctx, "f", v, rig.domain);
      co_await consumer->get(ctx, "f", v, rig.domain);
    }
    co_await ctx.delay(sim::seconds(2));
    for (const auto& s : rig.servers)
      before += s->memory().redundancy_bytes;
    // Consumer checkpoint releases replay retention; producer checkpoint
    // triggers the sweep + prune broadcast.
    co_await consumer->workflow_check(ctx, 6);
    co_await producer->workflow_check(ctx, 6);
    co_await ctx.delay(sim::seconds(2));
    for (const auto& s : rig.servers)
      after += s->memory().redundancy_bytes;
  });
  rig.run();
  EXPECT_GT(before, 0u);
  EXPECT_LT(after, before);
}

TEST(StagingRecoveryTest, DegradedServerFailsOnlyAfterSiblingsSend) {
  // The degraded check runs when each piece's call starts, not when the
  // fan-out is built: one degraded server must not keep the put from
  // reaching every other server before its error surfaces.
  Rig rig(3, params_with(resilience::Redundancy::kNone));
  auto producer = rig.make_client(0);
  producer->set_degraded_probe([](int server) { return server == 1; });
  std::vector<std::size_t> pieces(3);
  for (const dht::Placement& p : rig.index.place(rig.domain))
    pieces[static_cast<std::size_t>(p.server)] += p.pieces.size();
  ASSERT_GT(pieces[0], 0u);
  ASSERT_GT(pieces[1], 0u);
  ASSERT_GT(pieces[2], 0u);
  std::string error;
  std::vector<std::uint64_t> puts_at_error;
  sim::spawn(rig.eng, [&]() -> sim::Task<void> {
    sim::Ctx ctx{&rig.eng, nullptr};
    try {
      co_await producer->put(ctx, "f", 1, rig.domain);
    } catch (const std::runtime_error& e) {
      error = e.what();
      for (const auto& server : rig.servers)
        puts_at_error.push_back(server->stats().puts);
    }
  });
  rig.run();
  EXPECT_EQ(error, "staging degraded: server 1 unrecovered");
  ASSERT_EQ(puts_at_error.size(), 3u);
  EXPECT_EQ(puts_at_error[0], pieces[0]);
  EXPECT_EQ(puts_at_error[1], 0u);
  EXPECT_EQ(puts_at_error[2], pieces[2]);
  // Failed fast: no call to the degraded server was started.
  EXPECT_EQ(producer->rpc_stats().calls, pieces[0] + pieces[2]);
}

TEST(StagingRecoveryTest, WorkflowBroadcastToDegradedServerDoesNotFailFast) {
  // Only puts and gets fail fast on a degraded server: a checkpoint
  // broadcast still reaches every server and waits for every ack.
  Rig rig(3, params_with(resilience::Redundancy::kNone));
  auto producer = rig.make_client(0);
  producer->set_degraded_probe([](int server) { return server == 1; });
  bool acked = false;
  sim::spawn(rig.eng, [&]() -> sim::Task<void> {
    sim::Ctx ctx{&rig.eng, nullptr};
    co_await producer->workflow_check(ctx, 1, /*durable=*/false);
    acked = true;
  });
  rig.run();
  EXPECT_TRUE(acked);
  EXPECT_EQ(producer->rpc_stats().calls, 3u);
  EXPECT_EQ(producer->rpc_stats().responses, 3u);
}

TEST(StagingRecoveryTest, ExhaustedCallToDegradedServerSurfacesDegradedError) {
  // The server dies after the put started, so the call fails by timing
  // out. By the time the retries are exhausted it is reported degraded,
  // and the error says so instead of the generic rpc timeout.
  Rig rig(2, params_with(resilience::Redundancy::kNone));
  auto producer = rig.make_client(0);
  bool down = false;
  producer->set_degraded_probe([&](int server) { return down && server == 0; });
  rig.cluster.kill(rig.server_vprocs[0]);
  rig.eng.schedule_call(sim::seconds(1), [&] { down = true; });
  std::string error;
  sim::TimePoint failed_at{};
  sim::spawn(rig.eng, [&]() -> sim::Task<void> {
    sim::Ctx ctx{&rig.eng, nullptr};
    try {
      co_await producer->put(ctx, "f", 1, rig.domain);
    } catch (const std::runtime_error& e) {
      error = e.what();
      failed_at = rig.eng.now();
    }
  });
  rig.run();
  EXPECT_EQ(error, "staging degraded: server 0 unrecovered");
  std::size_t dead_pieces = 0;
  for (const dht::Placement& p : rig.index.place(rig.domain))
    if (p.server == 0) dead_pieces += p.pieces.size();
  EXPECT_EQ(producer->rpc_stats().exhausted, dead_pieces);
  // Every attempt timed out first (put_timeout 15 s, 6 attempts).
  EXPECT_GE(failed_at.ns, 6 * sim::seconds(15).ns);
}

TEST(StagingRecoveryTest, UndersizedGroupClampsPlacementLoudly) {
  // Two servers cannot hold the 6 distinct fragments RS(4,2) wants; the
  // push clamps (wrapping onto repeat peers) and says so in stats instead
  // of silently overstating survivability.
  Rig rig(2, params_with(resilience::Redundancy::kErasureCode));
  auto producer = rig.make_client(0);
  sim::spawn(rig.eng, [&]() -> sim::Task<void> {
    sim::Ctx ctx{&rig.eng, nullptr};
    co_await producer->put(ctx, "f", 1, rig.domain);
    co_await ctx.delay(sim::seconds(2));
  });
  rig.run();
  std::uint64_t clamped = 0;
  for (const auto& s : rig.servers) clamped += s->stats().placement_clamped;
  EXPECT_GT(clamped, 0u);
}

}  // namespace
}  // namespace dstage::staging
