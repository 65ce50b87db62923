// Integration tests: staging servers + clients running in the discrete-event
// simulation. Exercises the paper's queue-based consistency algorithm end to
// end: logging, checkpoint events (W_Chk_ID), recovery + replay, redundant-
// write suppression, logged-version read resolution, GC, and rollback.
#include <gtest/gtest.h>

#include <memory>
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
  Box domain = Box::from_dims(64, 64, 64);
  dht::SpatialIndex index;
  std::vector<cluster::VprocId> server_vprocs;
  std::vector<std::unique_ptr<StagingServer>> servers;

  explicit Rig(int nservers = 2, bool logging = true,
               ServerParams params = {})
      : index(domain, nservers, 8) {
    params.logging = logging;
    for (int s = 0; s < nservers; ++s) {
      auto vp = cluster.add_vproc("srv" + std::to_string(s),
                                  cluster.add_node());
      server_vprocs.push_back(vp);
      servers.push_back(
          std::make_unique<StagingServer>(cluster, vp, params));
    }
    std::vector<net::EndpointId> endpoints;
    for (auto vp : server_vprocs)
      endpoints.push_back(cluster.vproc(vp).endpoint);
    for (std::size_t s = 0; s < servers.size(); ++s) {
      servers[s]->set_peers(static_cast<int>(s), endpoints);
      servers[s]->start();
    }
  }

  std::unique_ptr<StagingClient> make_client(AppId app, bool logged) {
    auto vp = cluster.add_vproc("app" + std::to_string(app),
                                cluster.add_node());
    ClientParams cp;
    cp.app = app;
    cp.logged = logged;
    cp.mem_scale = 4096;
    return std::make_unique<StagingClient>(cluster, index, server_vprocs,
                                           vp, cp);
  }

  sim::Ctx ctx_of(const StagingClient& /*client*/) {
    // The client's vproc id is not exposed; track via endpoint order:
    // vprocs are servers first, then clients in creation order.
    return sim::Ctx{&eng, nullptr};
  }

  void register_simple_var(const std::string& var,
                           std::vector<std::pair<AppId, bool>> consumers) {
    for (auto& s : servers) s->register_var(var, consumers);
  }

  void run() { eng.run(); }

  ServerStats total_stats() const {
    ServerStats t;
    for (const auto& s : servers) {
      const auto& st = s->stats();
      t.puts += st.puts;
      t.gets += st.gets;
      t.gets_pending += st.gets_pending;
      t.puts_suppressed += st.puts_suppressed;
      t.gets_from_log += st.gets_from_log;
      t.replay_mismatches += st.replay_mismatches;
      t.gc_versions_dropped += st.gc_versions_dropped;
    }
    return t;
  }

  // Server loops wait on their mailboxes forever: unwind every parked
  // process so its coroutine frames are freed.
  ~Rig() {
    cluster.cancel_all();
    eng.run();
  }
};

TEST(StagingRtTest, PutThenGetRoundTrip) {
  Rig rig;
  auto producer = rig.make_client(0, true);
  auto consumer = rig.make_client(1, true);
  bool done = false;
  sim::spawn(rig.eng, [&]() -> sim::Task<void> {
    sim::Ctx ctx{&rig.eng, nullptr};
    auto pr = co_await producer->put(ctx, "f", 1, rig.domain);
    EXPECT_GT(pr.pieces, 0u);
    EXPECT_GT(pr.nominal_bytes, 0u);
    EXPECT_GT(pr.response_time.ns, 0);
    auto gr = co_await consumer->get(ctx, "f", 1, rig.domain);
    EXPECT_EQ(gr.wrong_version, 0);
    EXPECT_EQ(gr.corrupt, 0);
    EXPECT_EQ(gr.nominal_bytes, pr.nominal_bytes);
    done = true;
  });
  rig.run();
  EXPECT_TRUE(done);
}

TEST(StagingRtTest, GetBlocksUntilPutArrives) {
  Rig rig;
  auto producer = rig.make_client(0, true);
  auto consumer = rig.make_client(1, true);
  sim::TimePoint got_at{};
  sim::spawn(rig.eng, [&]() -> sim::Task<void> {
    sim::Ctx ctx{&rig.eng, nullptr};
    auto gr = co_await consumer->get(ctx, "f", 1, rig.domain);
    EXPECT_EQ(gr.wrong_version, 0);
    got_at = rig.eng.now();
  });
  sim::spawn(rig.eng, [&]() -> sim::Task<void> {
    sim::Ctx ctx{&rig.eng, nullptr};
    co_await ctx.delay(sim::seconds(5));
    co_await producer->put(ctx, "f", 1, rig.domain);
  });
  rig.run();
  EXPECT_GE(got_at.seconds(), 5.0);
  EXPECT_GT(rig.total_stats().gets_pending, 0u);
}

TEST(StagingRtTest, PartialRegionReadsVerify) {
  Rig rig;
  auto producer = rig.make_client(0, true);
  auto consumer = rig.make_client(1, true);
  sim::spawn(rig.eng, [&]() -> sim::Task<void> {
    sim::Ctx ctx{&rig.eng, nullptr};
    co_await producer->put(ctx, "f", 1, rig.domain);
    Box corner{{0, 0, 0}, {15, 15, 15}};
    auto gr = co_await consumer->get(ctx, "f", 1, corner);
    EXPECT_EQ(gr.wrong_version, 0);
    EXPECT_EQ(gr.corrupt, 0);
    EXPECT_EQ(gr.nominal_bytes, corner.volume() * 8);
  });
  rig.run();
}

TEST(StagingRtTest, CheckpointEventAssignsWChkIds) {
  Rig rig;
  auto client = rig.make_client(0, true);
  std::uint64_t id1 = 0, id2 = 0;
  sim::spawn(rig.eng, [&]() -> sim::Task<void> {
    sim::Ctx ctx{&rig.eng, nullptr};
    co_await client->put(ctx, "f", 1, rig.domain);
    id1 = co_await client->workflow_check(ctx, 1);
    co_await client->put(ctx, "f", 2, rig.domain);
    id2 = co_await client->workflow_check(ctx, 2);
  });
  rig.run();
  EXPECT_GT(id1, 0u);
  EXPECT_GT(id2, id1);  // unique, monotone per server
}

TEST(StagingRtTest, ProducerReplaySuppressesRedundantWrites) {
  // Fig. 2 case 2: the restarted producer re-puts staged data; with logging
  // the staging omits the redundant writes.
  Rig rig;
  auto producer = rig.make_client(0, true);
  rig.register_simple_var("f", {{1, true}});
  std::size_t replay_events = 0;
  std::size_t suppressed_in_replay = 0;
  sim::spawn(rig.eng, [&]() -> sim::Task<void> {
    sim::Ctx ctx{&rig.eng, nullptr};
    // Initial execution: ckpt at ts2, then progress to ts4, then "fail".
    for (Version v = 1; v <= 4; ++v) {
      co_await producer->put(ctx, "f", v, rig.domain);
      if (v == 2) co_await producer->workflow_check(ctx, 2);
    }
    // Rollback to ts2 and replay ts3, ts4.
    replay_events = co_await producer->workflow_restart(ctx, 2);
    for (Version v = 3; v <= 4; ++v) {
      auto pr = co_await producer->put(ctx, "f", v, rig.domain);
      suppressed_in_replay += pr.suppressed;
      EXPECT_EQ(pr.suppressed, pr.pieces);  // every piece suppressed
    }
    // Past the failure point: fresh writes are applied again.
    auto fresh = co_await producer->put(ctx, "f", 5, rig.domain);
    EXPECT_EQ(fresh.suppressed, 0u);
  });
  rig.run();
  EXPECT_GT(replay_events, 0u);
  EXPECT_GT(suppressed_in_replay, 0u);
  EXPECT_EQ(rig.total_stats().replay_mismatches, 0u);
}

TEST(StagingRtTest, ConsumerReplayResolvesLoggedVersions) {
  // Fig. 2 case 1: the restarted consumer re-reads; the log returns the
  // version observed initially even though newer data has been staged.
  Rig rig;
  auto producer = rig.make_client(0, true);
  auto consumer = rig.make_client(1, true);
  rig.register_simple_var("f", {{1, true}});
  int wrong = 0;
  bool from_log_seen = false;
  sim::spawn(rig.eng, [&]() -> sim::Task<void> {
    sim::Ctx ctx{&rig.eng, nullptr};
    // Producer stages versions 1..5 while the consumer reads them; the
    // consumer checkpoints after reading version 2. The store window keeps
    // only the latest 2 versions, so the log is the only source for replay.
    for (Version v = 1; v <= 5; ++v) {
      co_await producer->put(ctx, "f", v, rig.domain);
      auto gr = co_await consumer->get(ctx, "f", v, rig.domain);
      wrong += gr.wrong_version;
      if (v == 2) co_await consumer->workflow_check(ctx, 2);
    }
    // Consumer fails and is restored to its ts-2 checkpoint.
    co_await consumer->workflow_restart(ctx, 2);
    // Replay: re-reads 3..5 must return exactly versions 3..5 from the log.
    for (Version v = 3; v <= 5; ++v) {
      auto gr = co_await consumer->get(ctx, "f", v, rig.domain);
      wrong += gr.wrong_version;
      from_log_seen |= gr.any_from_log;
      EXPECT_EQ(gr.nominal_bytes, rig.domain.volume() * 8);
    }
  });
  rig.run();
  EXPECT_EQ(wrong, 0);
  EXPECT_TRUE(from_log_seen);
}

TEST(StagingRtTest, NonLoggedStaleReadServesNewestVersion) {
  // Without logging (individual C/R), a re-read of a superseded version is
  // answered with the newest data — and detected by the content key.
  Rig rig(2, /*logging=*/false);
  auto producer = rig.make_client(0, false);
  auto consumer = rig.make_client(1, false);
  int wrong = 0;
  sim::spawn(rig.eng, [&]() -> sim::Task<void> {
    sim::Ctx ctx{&rig.eng, nullptr};
    for (Version v = 1; v <= 5; ++v)
      co_await producer->put(ctx, "f", v, rig.domain);
    auto gr = co_await consumer->get(ctx, "f", 1, rig.domain);
    wrong += gr.wrong_version;
  });
  rig.run();
  EXPECT_GT(wrong, 0);
}

TEST(StagingRtTest, GarbageCollectionReclaimsAfterConsumerCheckpoint) {
  Rig rig;
  auto producer = rig.make_client(0, true);
  auto consumer = rig.make_client(1, true);
  rig.register_simple_var("f", {{1, true}});
  std::uint64_t log_before = 0, log_after = 0;
  sim::spawn(rig.eng, [&]() -> sim::Task<void> {
    sim::Ctx ctx{&rig.eng, nullptr};
    for (Version v = 1; v <= 6; ++v) {
      co_await producer->put(ctx, "f", v, rig.domain);
      co_await consumer->get(ctx, "f", v, rig.domain);
    }
    for (const auto& s : rig.servers)
      log_before += s->data_log().nominal_bytes();
    // Consumer checkpoints at ts6: versions <= 6 become unreachable for
    // replay; GC keeps only the newest retained version.
    co_await consumer->workflow_check(ctx, 6);
    for (const auto& s : rig.servers)
      log_after += s->data_log().nominal_bytes();
  });
  rig.run();
  EXPECT_GT(log_before, 0u);
  EXPECT_LT(log_after, log_before / 2);
  EXPECT_GT(rig.total_stats().gc_versions_dropped, 0u);
}

TEST(StagingRtTest, NonDurableCheckpointReclaimsNothing) {
  // The durability split: a checkpoint a node failure can wipe (a
  // hierarchy cache set before its drain) anchors replay, but only a
  // durable one may advance the GC watermark and sweep.
  Rig rig;
  auto producer = rig.make_client(0, true);
  auto consumer = rig.make_client(1, true);
  rig.register_simple_var("f", {{1, true}});
  std::uint64_t log_before = 0, log_non_durable = 0, log_durable = 0;
  std::uint64_t dropped_non_durable = 0;
  sim::spawn(rig.eng, [&]() -> sim::Task<void> {
    sim::Ctx ctx{&rig.eng, nullptr};
    for (Version v = 1; v <= 6; ++v) {
      co_await producer->put(ctx, "f", v, rig.domain);
      co_await consumer->get(ctx, "f", v, rig.domain);
    }
    for (const auto& s : rig.servers)
      log_before += s->data_log().nominal_bytes();
    co_await consumer->workflow_check(ctx, 6, /*durable=*/false);
    for (const auto& s : rig.servers)
      log_non_durable += s->data_log().nominal_bytes();
    dropped_non_durable = rig.total_stats().gc_versions_dropped;
    co_await consumer->workflow_check(ctx, 6);
    for (const auto& s : rig.servers)
      log_durable += s->data_log().nominal_bytes();
  });
  rig.run();
  EXPECT_GT(log_before, 0u);
  EXPECT_EQ(log_non_durable, log_before);
  EXPECT_EQ(dropped_non_durable, 0u);
  EXPECT_LT(log_durable, log_before / 2);
  EXPECT_GT(rig.total_stats().gc_versions_dropped, 0u);
}

TEST(StagingRtTest, ReplayedGetMatchesTheVersion) {
  // The version is part of the replay match: a consumer restarted from a
  // checkpoint older than its last marker re-reads a version from before
  // the script. The script's next get has the same var and region, but
  // serving it would hand back the script's newer version.
  Rig rig;
  auto producer = rig.make_client(0, true);
  auto consumer = rig.make_client(1, true);
  rig.register_simple_var("f", {{1, true}});
  GetResult reread, script_get;
  sim::spawn(rig.eng, [&]() -> sim::Task<void> {
    sim::Ctx ctx{&rig.eng, nullptr};
    for (Version v = 1; v <= 5; ++v) {
      co_await producer->put(ctx, "f", v, rig.domain);
    }
    // Durable checkpoint at 2, a non-durable marker at 3, then one more
    // read: the replay script is get v4.
    for (Version v = 1; v <= 4; ++v) {
      co_await consumer->get(ctx, "f", v, rig.domain);
      if (v == 2) co_await consumer->workflow_check(ctx, 2);
      if (v == 3) {
        co_await consumer->workflow_check(ctx, 3, /*durable=*/false);
      }
    }
    // The marker at 3 was lost: restart from the durable checkpoint at 2.
    co_await consumer->workflow_restart(ctx, 2);
    reread = co_await consumer->get(ctx, "f", 3, rig.domain);
    script_get = co_await consumer->get(ctx, "f", 4, rig.domain);
  });
  rig.run();
  EXPECT_EQ(reread.wrong_version, 0);
  EXPECT_EQ(reread.corrupt, 0);
  EXPECT_EQ(reread.nominal_bytes, rig.domain.volume() * 8);
  EXPECT_EQ(script_get.wrong_version, 0);
  EXPECT_TRUE(script_get.any_from_log);
  // Every piece request of the v3 re-read missed its server's script;
  // the v4 ones then matched it.
  EXPECT_EQ(rig.total_stats().replay_mismatches, reread.pieces.size());
}

TEST(StagingRtTest, GcSafety_ReplayStillServedAfterSweeps) {
  // GC runs at every checkpoint, yet a consumer that rolls back can still
  // replay every read after its last checkpoint.
  Rig rig;
  auto producer = rig.make_client(0, true);
  auto consumer = rig.make_client(1, true);
  rig.register_simple_var("f", {{1, true}});
  int wrong = 0;
  sim::spawn(rig.eng, [&]() -> sim::Task<void> {
    sim::Ctx ctx{&rig.eng, nullptr};
    for (Version v = 1; v <= 8; ++v) {
      co_await producer->put(ctx, "f", v, rig.domain);
      co_await consumer->get(ctx, "f", v, rig.domain);
      if (v == 4) co_await consumer->workflow_check(ctx, 4);
      if (v % 2 == 0) co_await producer->workflow_check(ctx, v);
    }
    co_await consumer->workflow_restart(ctx, 4);
    for (Version v = 5; v <= 8; ++v) {
      auto gr = co_await consumer->get(ctx, "f", v, rig.domain);
      wrong += gr.wrong_version + gr.corrupt;
    }
  });
  rig.run();
  EXPECT_EQ(wrong, 0);
}

TEST(StagingRtTest, RollbackDiscardsNewerVersions) {
  Rig rig(2, /*logging=*/false);
  auto client = rig.make_client(0, false);
  sim::spawn(rig.eng, [&]() -> sim::Task<void> {
    sim::Ctx ctx{&rig.eng, nullptr};
    for (Version v = 1; v <= 5; ++v)
      co_await client->put(ctx, "f", v, rig.domain);
    co_await client->rollback_staging(ctx, 2);
    // After the rollback only versions <= 2 remain (window had {4, 5},
    // both dropped), so a fresh get for v5 blocks until re-staged.
    co_await client->put(ctx, "f", 3, rig.domain);
    auto gr = co_await client->get(ctx, "f", 3, rig.domain);
    EXPECT_EQ(gr.wrong_version, 0);
  });
  rig.run();
  for (const auto& s : rig.servers) {
    auto latest = s->store().latest("f");
    if (latest) {
      EXPECT_LE(*latest, 3u);
    }
  }
}

TEST(StagingRtTest, ErasureCodePolicyDistributesFragmentsToPeers) {
  ServerParams params;
  params.policy.kind = resilience::Redundancy::kErasureCode;
  params.policy.rs_k = 4;
  params.policy.rs_m = 2;
  Rig rig(2, true, params);
  auto client = rig.make_client(0, true);
  sim::spawn(rig.eng, [&]() -> sim::Task<void> {
    sim::Ctx ctx{&rig.eng, nullptr};
    co_await client->put(ctx, "f", 1, rig.domain);
  });
  rig.run();
  std::uint64_t redundancy = 0;
  for (const auto& s : rig.servers) redundancy += s->memory().redundancy_bytes;
  // Each owner keeps its full payload and spreads all k+m shards minus the
  // one it implicitly holds: (k-1+m)/k of the payload lands on peers.
  const std::uint64_t total = rig.domain.volume() * 8;
  EXPECT_EQ(redundancy, total * 5 / 4);
}

/// Three logged versions of "f" on a two-server rig, summed over servers.
MemoryReport three_logged_versions(ServerParams params) {
  Rig rig(2, true, params);
  auto client = rig.make_client(0, true);
  rig.register_simple_var("f", {{1, true}});
  sim::spawn(rig.eng, [&]() -> sim::Task<void> {
    sim::Ctx ctx{&rig.eng, nullptr};
    for (Version v = 1; v <= 3; ++v)
      co_await client->put(ctx, "f", v, rig.domain);
  });
  rig.run();
  MemoryReport sum;
  for (const auto& s : rig.servers) {
    const MemoryReport m = s->memory();
    sum.store_bytes += m.store_bytes;
    sum.log_payload_bytes += m.log_payload_bytes;
    sum.buffer_bytes += m.buffer_bytes;
    sum.log_metadata_bytes += m.log_metadata_bytes;
  }
  return sum;
}

TEST(StagingRtTest, MemoryReportSeparatesStoreAndLog) {
  const MemoryReport m = three_logged_versions({});
  const std::uint64_t per_version = Box::from_dims(64, 64, 64).volume() * 8;
  EXPECT_EQ(m.store_bytes, 2 * per_version);  // base window of 2
  EXPECT_EQ(m.log_payload_bytes, 3 * per_version);  // no ckpt yet
  EXPECT_GT(m.log_metadata_bytes, 0u);
  // The raw log holds the window's pieces: the two windowed versions are
  // stored once, so the server is charged for three versions, not five.
  EXPECT_EQ(m.governed(), 3 * per_version + m.log_metadata_bytes);
}

TEST(StagingRtTest, EncodedLogSharesNoBufferWithTheStore) {
  ServerParams params;
  params.log_codec = wlog::codec::Scheme::kDeltaLz;
  const MemoryReport m = three_logged_versions(params);
  const std::uint64_t per_version = Box::from_dims(64, 64, 64).volume() * 8;
  EXPECT_EQ(m.store_bytes, 2 * per_version);
  EXPECT_GT(m.log_payload_bytes, 0u);
  // The encoded copy is a piece of its own: both holders are charged.
  EXPECT_EQ(m.governed(),
            m.store_bytes + m.log_payload_bytes + m.log_metadata_bytes);
}

TEST(StagingRtTest, QueryReportsAvailableAndLoggedVersions) {
  Rig rig;
  auto producer = rig.make_client(0, true);
  rig.register_simple_var("f", {{1, true}});
  QueryResult before{}, after{};
  sim::spawn(rig.eng, [&]() -> sim::Task<void> {
    sim::Ctx ctx{&rig.eng, nullptr};
    for (Version v = 1; v <= 5; ++v)
      co_await producer->put(ctx, "f", v, rig.domain);
    before = co_await producer->query(ctx, "f");
    // The consumer-free GC watermark stays 0 (consumer app 1 never
    // checkpoints), so everything is fully logged.
    co_await producer->workflow_check(ctx, 5);
    after = co_await producer->query(ctx, "f");
  });
  rig.run();
  // Base window keeps the latest two versions.
  EXPECT_EQ(before.available, (std::vector<Version>{4, 5}));
  EXPECT_EQ(before.fully_logged, (std::vector<Version>{1, 2, 3, 4, 5}));
  EXPECT_EQ(after.available, (std::vector<Version>{4, 5}));
}

TEST(StagingRtTest, QueryUnknownVariableIsEmpty) {
  Rig rig;
  auto client = rig.make_client(0, true);
  QueryResult r{};
  bool queried = false;
  sim::spawn(rig.eng, [&]() -> sim::Task<void> {
    sim::Ctx ctx{&rig.eng, nullptr};
    r = co_await client->query(ctx, "nonexistent");
    queried = true;
  });
  rig.run();
  EXPECT_TRUE(queried);
  EXPECT_TRUE(r.available.empty());
  EXPECT_TRUE(r.fully_logged.empty());
}

TEST(StagingRtTest, ServerKillUnblocksNothingButClientSurvivesViaTimeout) {
  // A killed server stops serving; parked requests stay unanswered. This
  // documents the failure mode the resilience layer addresses.
  Rig rig(1);
  auto client = rig.make_client(0, true);
  bool got = false;
  sim::CancelToken client_tok;
  sim::spawn(rig.eng, [&]() -> sim::Task<void> {
    sim::Ctx ctx{&rig.eng, &client_tok};
    auto gr = co_await client->get(ctx, "f", 1, rig.domain);
    got = true;
  });
  rig.eng.schedule_call(sim::seconds(1), [&] {
    rig.cluster.kill(rig.server_vprocs[0]);
  });
  rig.eng.schedule_call(sim::seconds(2), [&] { client_tok.cancel(); });
  rig.run();
  EXPECT_FALSE(got);
}

}  // namespace
}  // namespace dstage::staging
