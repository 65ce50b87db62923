// Staging-service resilience (CoREC layer): redundancy fragments and queue
// mirrors on peer servers let a failed staging server be rebuilt without
// losing staged data, logged payloads, or replay state. Clients ride out
// the outage via RPC timeouts + retries.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "dht/spatial_index.hpp"
#include "sim/spawn.hpp"
#include "staging/client.hpp"
#include "staging/recovery.hpp"
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
  obs::Recorder recorder{eng};
  net::Fabric fabric{eng, {}};
  cluster::Cluster cluster{eng, fabric};
  Box domain = Box::from_dims(64, 64, 64);
  dht::SpatialIndex index;
  std::vector<cluster::VprocId> server_vprocs;
  std::vector<std::unique_ptr<StagingServer>> servers;
  std::unique_ptr<StagingRecoveryManager> manager;

  /// `traced` gives every server an event track named after its vproc.
  explicit Rig(int nservers, ServerParams params, int spares = 4,
               bool traced = false)
      : index(domain, nservers, 8) {
    for (int s = 0; s < nservers; ++s) {
      const std::string name = "srv" + std::to_string(s);
      auto vp = cluster.add_vproc(name, cluster.add_node());
      server_vprocs.push_back(vp);
      servers.push_back(std::make_unique<StagingServer>(
          cluster, vp, params,
          traced ? recorder.track(name) : obs::Track{}));
      servers.back()->register_var("f", {{1, true}});
    }
    std::vector<net::EndpointId> endpoints;
    for (auto vp : server_vprocs)
      endpoints.push_back(cluster.vproc(vp).endpoint);
    for (std::size_t s = 0; s < servers.size(); ++s) {
      servers[s]->set_peers(static_cast<int>(s), endpoints);
      servers[s]->start();
    }
    manager = std::make_unique<StagingRecoveryManager>(
        cluster, &servers, server_vprocs, params, spares,
        recorder.track("recovery-manager"));
    manager->arm();
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

class RecoveryPolicyTest
    : public ::testing::TestWithParam<resilience::Redundancy> {};

TEST_P(RecoveryPolicyTest, ServerLossIsTransparentToReaders) {
  Rig rig(3, params_with(GetParam()));
  auto producer = rig.make_client(0);
  auto consumer = rig.make_client(1);
  int wrong = 0, corrupt = 0;
  std::uint64_t bytes_before = 0, bytes_after = 0;
  sim::spawn(rig.eng, [&]() -> sim::Task<void> {
    sim::Ctx ctx{&rig.eng, nullptr};
    for (Version v = 1; v <= 3; ++v)
      co_await producer->put(ctx, "f", v, rig.domain);
    co_await ctx.delay(sim::seconds(5));  // let fragments propagate

    // Kill staging server 0; the manager replaces and rebuilds it.
    rig.cluster.kill(rig.server_vprocs[0]);
    co_await ctx.delay(sim::seconds(10));

    // Reads of the latest versions must succeed with verified content.
    for (Version v = 2; v <= 3; ++v) {
      auto gr = co_await consumer->get(ctx, "f", v, rig.domain);
      wrong += gr.wrong_version;
      corrupt += gr.corrupt;
      bytes_after += gr.nominal_bytes;
    }
    bytes_before = 2 * rig.domain.volume() * 8;
  });
  rig.run();
  EXPECT_EQ(wrong, 0);
  EXPECT_EQ(corrupt, 0);
  EXPECT_EQ(bytes_after, bytes_before);
  EXPECT_EQ(rig.manager->stats().server_failures, 1);
  EXPECT_EQ(rig.manager->stats().servers_recovered, 1);
  EXPECT_GT(rig.servers[0]->stats().chunks_rebuilt, 0u);
  EXPECT_EQ(rig.servers[0]->stats().rebuild_failures, 0u);
}

INSTANTIATE_TEST_SUITE_P(Policies, RecoveryPolicyTest,
                         ::testing::Values(
                             resilience::Redundancy::kReplication,
                             resilience::Redundancy::kErasureCode),
                         [](const auto& info) {
                           return info.param ==
                                          resilience::Redundancy::kReplication
                                      ? std::string("Replication")
                                      : std::string("ErasureCode");
                         });

TEST(StagingRecoveryTest, RequestsDuringOutageAreServedAfterRebuild) {
  Rig rig(3, params_with(resilience::Redundancy::kErasureCode));
  auto producer = rig.make_client(0);
  auto consumer = rig.make_client(1);
  int wrong = 0;
  bool got = false;
  sim::spawn(rig.eng, [&]() -> sim::Task<void> {
    sim::Ctx ctx{&rig.eng, nullptr};
    co_await producer->put(ctx, "f", 1, rig.domain);
    co_await ctx.delay(sim::seconds(2));
    rig.cluster.kill(rig.server_vprocs[1]);
    // Put the next version while server 1 is down: pieces for the dead
    // server wait in its mailbox (plus client retries) and apply once the
    // replacement finishes rebuilding.
    co_await producer->put(ctx, "f", 2, rig.domain);
    auto gr = co_await consumer->get(ctx, "f", 2, rig.domain);
    wrong = gr.wrong_version + gr.corrupt;
    got = gr.nominal_bytes == rig.domain.volume() * 8;
  });
  rig.run();
  EXPECT_TRUE(got);
  EXPECT_EQ(wrong, 0);
  EXPECT_EQ(rig.manager->stats().servers_recovered, 1);
}

TEST(StagingRecoveryTest, QueueMirrorPreservesReplayAcrossServerLoss) {
  // The producer's event queue survives the staging server's death via the
  // successor mirror, so a producer rollback after the staging recovery
  // still suppresses its redundant writes.
  Rig rig(3, params_with(resilience::Redundancy::kErasureCode));
  auto producer = rig.make_client(0);
  std::size_t suppressed = 0;
  sim::spawn(rig.eng, [&]() -> sim::Task<void> {
    sim::Ctx ctx{&rig.eng, nullptr};
    co_await producer->put(ctx, "f", 1, rig.domain);
    co_await producer->workflow_check(ctx, 1);
    co_await producer->put(ctx, "f", 2, rig.domain);
    co_await ctx.delay(sim::seconds(2));  // mirrors propagate

    rig.cluster.kill(rig.server_vprocs[0]);
    co_await ctx.delay(sim::seconds(10));  // recovery completes

    // Now the *producer* rolls back to its ts-1 checkpoint and replays.
    co_await producer->workflow_restart(ctx, 1);
    auto pr = co_await producer->put(ctx, "f", 2, rig.domain);
    suppressed = pr.suppressed;
  });
  rig.run();
  EXPECT_GT(suppressed, 0u);
}

TEST(StagingRecoveryTest, ReplacementInheritsGcRegistryAndTrack) {
  // The replacement takes over its predecessor's variable registrations:
  // with an empty registry every watermark reads "reclaim all", and the
  // producer's checkpoint would sweep logged versions the rollback-capable
  // consumer (no checkpoint yet) may still replay. It also keeps recording
  // on the predecessor's event track.
  Rig rig(3, params_with(resilience::Redundancy::kErasureCode), /*spares=*/4,
          /*traced=*/true);
  auto producer = rig.make_client(0);
  auto consumer = rig.make_client(1);
  sim::spawn(rig.eng, [&]() -> sim::Task<void> {
    sim::Ctx ctx{&rig.eng, nullptr};
    for (Version v = 1; v <= 4; ++v) {
      co_await producer->put(ctx, "f", v, rig.domain);
      co_await consumer->get(ctx, "f", v, rig.domain);
    }
    co_await ctx.delay(sim::seconds(2));
    rig.cluster.kill(rig.server_vprocs[0]);
    co_await ctx.delay(sim::seconds(10));
    co_await producer->workflow_check(ctx, 4);
    co_await ctx.delay(sim::seconds(2));
  });
  rig.run();
  ASSERT_EQ(rig.manager->stats().servers_recovered, 1);
  const std::vector<Version> all{1, 2, 3, 4};
  for (const auto& s : rig.servers) {
    EXPECT_EQ(s->data_log().versions_of("f"), all);
    EXPECT_EQ(s->stats().gc_versions_dropped, 0u);
  }
  std::size_t replacement_sweeps = 0;
  for (const obs::DecodedEvent& e : rig.recorder.dump()) {
    replacement_sweeps += e.track == "srv0" && e.kind == "gc-sweep";
  }
  EXPECT_EQ(replacement_sweeps, 1u);
}

TEST(StagingRecoveryTest, RebuildSkipsCorruptReplica) {
  // A corrupt replica held ahead of the genuine one must not be restored:
  // rebuild verifies each replica against its content key and falls
  // through to the next, exactly as a degraded read does.
  Rig rig(3, params_with(resilience::Redundancy::kReplication));
  auto producer = rig.make_client(0);
  const cluster::VprocId forger =
      rig.cluster.add_vproc("forger", rig.cluster.add_node());
  net::Rpc rpc(rig.fabric, rig.cluster.vproc(forger).endpoint);
  const net::EndpointId holder =
      rig.cluster.vproc(rig.server_vprocs[1]).endpoint;
  sim::spawn(rig.eng, [&]() -> sim::Task<void> {
    sim::Ctx ctx{&rig.eng, nullptr};
    // Server 1 holds server 0's replicas (its successor); plant a
    // byte-flipped copy of each of server 0's v1 pieces there first.
    for (const dht::Placement& placement : rig.index.place(rig.domain)) {
      if (placement.server != 0) continue;
      for (const Box& piece : placement.pieces) {
        const Chunk genuine = make_chunk("f", 1, piece, 8, 4096);
        auto bytes = *genuine.data;
        bytes[0] ^= 0xff;
        FragmentPut forged;
        forged.owner = 0;
        forged.var = "f";
        forged.version = 1;
        forged.region = piece;
        forged.frag_index = 1;
        forged.nominal_bytes = genuine.nominal_bytes;
        forged.original_physical = bytes.size();
        forged.content_key = genuine.content_key;
        forged.logged = true;
        forged.data =
            std::make_shared<const std::vector<std::uint8_t>>(std::move(bytes));
        net::Message msg{std::move(forged)};
        co_await rpc.send(ctx, holder, std::move(msg));
      }
    }
    co_await producer->put(ctx, "f", 1, rig.domain);
    co_await ctx.delay(sim::seconds(2));
    rig.cluster.kill(rig.server_vprocs[0]);
    co_await ctx.delay(sim::seconds(10));
  });
  rig.run();
  const StagingServer& rebuilt = *rig.servers[0];
  const std::vector<Chunk> chunks = rebuilt.store().chunks_of("f", 1);
  ASSERT_FALSE(chunks.empty());
  EXPECT_EQ(rebuilt.stats().chunks_rebuilt, chunks.size());
  EXPECT_EQ(rebuilt.stats().rebuild_failures, 0u);
  std::size_t corrupt = 0;
  for (const Chunk& c : chunks) corrupt += check_chunk(c, "f", 1) != ChunkCheck::kOk;
  EXPECT_EQ(corrupt, 0u);
}

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

TEST(StagingRecoveryTest, RefailureDuringRecoveryIsCoalesced) {
  // The same vproc fails again while its recovery is still awaiting the
  // respawn delay. The manager must coalesce the second failure into the
  // in-flight recovery — a single spare, a single replacement — instead of
  // racing two replacements into the same slot. spares=1 makes a
  // double-acquire observable: it would exhaust the pool and mark the
  // server degraded.
  Rig rig(3, params_with(resilience::Redundancy::kErasureCode), /*spares=*/1);
  auto producer = rig.make_client(0);
  auto consumer = rig.make_client(1);
  int wrong = 0;
  std::uint64_t got = 0;
  sim::spawn(rig.eng, [&]() -> sim::Task<void> {
    sim::Ctx ctx{&rig.eng, nullptr};
    co_await producer->put(ctx, "f", 1, rig.domain);
    co_await ctx.delay(sim::seconds(2));  // fragments propagate

    rig.cluster.kill(rig.server_vprocs[0]);
    // Recovery is now sleeping through the 2 s respawn delay. Flap the
    // vproc: briefly back up, then dead again — a second failure event for
    // a server whose recovery is already in flight.
    co_await ctx.delay(sim::seconds(1));
    rig.cluster.revive(rig.server_vprocs[0]);
    rig.cluster.kill(rig.server_vprocs[0]);

    co_await ctx.delay(sim::seconds(15));  // let the recovery land
    auto gr = co_await consumer->get(ctx, "f", 1, rig.domain);
    wrong = gr.wrong_version + gr.corrupt;
    got = gr.nominal_bytes;
  });
  rig.run();
  EXPECT_EQ(rig.manager->stats().server_failures, 2);
  EXPECT_EQ(rig.manager->stats().coalesced_failures, 1);
  EXPECT_EQ(rig.manager->stats().servers_recovered, 1);
  // No double-acquire: the single spare covered both failure events.
  EXPECT_EQ(rig.manager->stats().spare_exhausted, 0);
  EXPECT_FALSE(rig.manager->is_degraded(0));
  EXPECT_EQ(wrong, 0);
  EXPECT_EQ(got, rig.domain.volume() * 8);
}

TEST(StagingRecoveryTest, DegradedServerSurfacesDistinctClientError) {
  // Spare pool empty: the dead server is never coming back. With the
  // degraded probe wired, client requests to it must fail fast with the
  // distinct "staging degraded" error (not a generic rpc timeout), and the
  // manager must report the condition loudly.
  Rig rig(3, params_with(resilience::Redundancy::kErasureCode), /*spares=*/0);
  auto producer = rig.make_client(0);
  producer->set_degraded_probe(
      [&rig](int server) { return rig.manager->is_degraded(server); });
  int degraded_server = -1;
  rig.manager->set_on_degraded([&](int index) { degraded_server = index; });
  std::string error;
  sim::spawn(rig.eng, [&]() -> sim::Task<void> {
    sim::Ctx ctx{&rig.eng, nullptr};
    co_await producer->put(ctx, "f", 1, rig.domain);
    rig.cluster.kill(rig.server_vprocs[0]);
    co_await ctx.delay(sim::seconds(1));
    try {
      co_await producer->put(ctx, "f", 2, rig.domain);
    } catch (const std::runtime_error& e) {
      error = e.what();
    }
  });
  rig.run();
  EXPECT_EQ(rig.manager->stats().spare_exhausted, 1);
  EXPECT_EQ(rig.manager->degraded_count(), 1);
  EXPECT_TRUE(rig.manager->is_degraded(0));
  EXPECT_EQ(degraded_server, 0);
  EXPECT_NE(error.find("staging degraded: server"), std::string::npos)
      << "got: " << error;
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
  Rig rig(2, params_with(resilience::Redundancy::kNone), /*spares=*/0);
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

TEST(StagingRecoveryTest, SpareExhaustionNotesDegradationOnFlightRecorder) {
  // Trigger class 3 for the forensic dump: spare-pool exhaustion is a loud
  // degradation. With a recorder wired, the manager must both record the
  // kDegradation event and keep the verbatim note that makes the runtime
  // freeze a bundle.
  Rig rig(3, params_with(resilience::Redundancy::kErasureCode), /*spares=*/0);
  const obs::Recorder& recorder = rig.recorder;
  auto producer = rig.make_client(0);
  sim::spawn(rig.eng, [&]() -> sim::Task<void> {
    sim::Ctx ctx{&rig.eng, nullptr};
    co_await producer->put(ctx, "f", 1, rig.domain);
    rig.cluster.kill(rig.server_vprocs[0]);
    co_await ctx.delay(sim::seconds(1));
  });
  rig.run();
  ASSERT_EQ(rig.manager->stats().spare_exhausted, 1);
  ASSERT_EQ(recorder.degradations().size(), 1u);
  EXPECT_NE(recorder.degradations()[0].find("spare pool exhausted"),
            std::string::npos);
  const auto dump = recorder.dump();
  ASSERT_EQ(dump.size(), 1u);
  EXPECT_EQ(dump[0].kind, "degradation");
  EXPECT_EQ(dump[0].track, "recovery-manager");
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

TEST(StagingRecoveryTest, NoSparesMeansDegradedNotCrashed) {
  Rig rig(3, params_with(resilience::Redundancy::kErasureCode), /*spares=*/0);
  auto producer = rig.make_client(0);
  bool finished = false;
  sim::CancelToken app_tok;
  sim::spawn(rig.eng, [&]() -> sim::Task<void> {
    sim::Ctx ctx{&rig.eng, &app_tok};
    try {
      co_await producer->put(ctx, "f", 1, rig.domain);
      rig.cluster.kill(rig.server_vprocs[0]);
      // Requests to the dead server eventually exhaust retries.
      co_await producer->put(ctx, "f", 2, rig.domain);
    } catch (const std::runtime_error&) {
      finished = true;  // timed out after retries, as designed
    }
  });
  rig.run();
  EXPECT_TRUE(finished);
  EXPECT_EQ(rig.manager->stats().spare_exhausted, 1);
}

}  // namespace
}  // namespace dstage::staging
