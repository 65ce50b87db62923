// Memory-governor edge cases: oversized-put overruns, spill vs GC races,
// replay read-through of spilled payloads, and the RetryLater backpressure
// protocol (a bounced put is never acked early). The happy path — spill
// and backpressure bounding a long run's footprint — is covered by the
// consistency campaign and the fig_memcap bench; these tests pin down the
// corners.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/pfs.hpp"
#include "dht/spatial_index.hpp"
#include "sim/spawn.hpp"
#include "net/rpc.hpp"
#include "staging/client.hpp"
#include "staging/group.hpp"
#include "staging/server.hpp"
#include "staging/spill_gateway.hpp"
#include "staging/tenant.hpp"

namespace dstage::staging {
namespace {

constexpr std::uint64_t kMiB = 1ull << 20;

struct Rig {
  sim::Engine eng;
  net::Fabric fabric{eng, {}};
  cluster::Cluster cluster{eng, fabric};
  cluster::Pfs pfs{eng, {}};
  Box domain = Box::from_dims(64, 64, 64);  // 2 MiB nominal per version
  dht::SpatialIndex index;
  std::vector<cluster::VprocId> server_vprocs;
  std::vector<std::unique_ptr<StagingServer>> servers;
  std::unique_ptr<SpillGateway> gateway;

  Rig(int nservers, std::uint64_t budget_bytes, int cells = 8)
      : index(domain, nservers, cells) {
    ServerParams params;
    params.logging = true;
    params.governor.memory_budget = budget_bytes;
    for (int s = 0; s < nservers; ++s) {
      auto vp =
          cluster.add_vproc("srv" + std::to_string(s), cluster.add_node());
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
    auto gw_vp = cluster.add_vproc("spill-gw", cluster.add_node());
    gateway = std::make_unique<SpillGateway>(cluster, gw_vp, pfs);
    gateway->start();
    for (auto& s : servers) s->set_spill_endpoint(gateway->endpoint());
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
    return std::make_unique<StagingClient>(cluster, index, server_vprocs, vp,
                                           cp);
  }

  template <class Pick>
  std::uint64_t stat_sum(Pick pick) const {
    std::uint64_t total = 0;
    for (const auto& s : servers) total += pick(s->stats());
    return total;
  }

  void run() { eng.run(); }

  // Server loops wait on their mailboxes forever: unwind every parked
  // process so its coroutine frames are freed.
  ~Rig() {
    cluster.cancel_all();
    eng.run();
  }
};

TEST(StagingGovernorTest, OversizedPutAdmittedAsOverrun) {
  // Budget far below a single chunk: rejecting would bounce the put on
  // every retry forever, so the governor lets it through and counts it.
  Rig rig(1, /*budget_bytes=*/64 << 10, /*cells=*/2);
  auto producer = rig.make_client(0);
  auto consumer = rig.make_client(1);
  bool done = false;
  std::uint64_t got = 0;
  sim::spawn(rig.eng, [&]() -> sim::Task<void> {
    sim::Ctx ctx{&rig.eng, nullptr};
    for (Version v = 1; v <= 3; ++v)
      co_await producer->put(ctx, "f", v, rig.domain);
    auto gr = co_await consumer->get(ctx, "f", 3, rig.domain);
    got = gr.nominal_bytes;
    done = true;
  });
  rig.run();
  EXPECT_TRUE(done);  // no livelock: every put completed
  EXPECT_EQ(got, rig.domain.volume() * 8);
  EXPECT_GT(rig.stat_sum([](const ServerStats& s) {
    return s.governor_overruns;
  }), 0u);
  EXPECT_EQ(rig.stat_sum([](const ServerStats& s) {
    return s.puts_rejected;
  }), 0u);
}

TEST(StagingGovernorTest, SpillAndBackpressureBoundTheFootprint) {
  // Tight-but-feasible budget: the log outgrows the soft watermark (spill)
  // and puts transiently cross the hard watermark (RetryLater) before the
  // spill catches up. Everything still completes, and reads verify.
  Rig rig(2, /*budget_bytes=*/6 * kMiB);
  auto producer = rig.make_client(0);
  auto consumer = rig.make_client(1);
  std::uint64_t got = 0;
  int bad = 0;
  sim::spawn(rig.eng, [&]() -> sim::Task<void> {
    sim::Ctx ctx{&rig.eng, nullptr};
    for (Version v = 1; v <= 10; ++v)
      co_await producer->put(ctx, "f", v, rig.domain);
    auto gr = co_await consumer->get(ctx, "f", 10, rig.domain);
    got = gr.nominal_bytes;
    bad = gr.wrong_version + gr.corrupt;
  });
  rig.run();
  EXPECT_EQ(got, rig.domain.volume() * 8);
  EXPECT_EQ(bad, 0);
  const std::uint64_t spilled =
      rig.stat_sum([](const ServerStats& s) { return s.spill_versions; });
  const std::uint64_t rejected =
      rig.stat_sum([](const ServerStats& s) { return s.puts_rejected; });
  EXPECT_GT(spilled, 0u);
  EXPECT_GT(rejected, 0u);
  // On the single-put path the rpc transport absorbs the RetryLater loop;
  // the client-visible evidence is its backpressure-wait counter.
  EXPECT_GT(producer->rpc_stats().backpressure_waits, 0u);
  // Spilled versions really live at the gateway.
  EXPECT_GT(rig.gateway->stats().spill_puts, 0u);
  // With the budget enforced, no server's governed footprint stays above
  // its hard watermark once the run has drained.
  for (const auto& s : rig.servers) {
    EXPECT_LE(s->memory().governed(), 6 * kMiB);
  }
}

TEST(StagingGovernorTest, SpillAbortedWhenGcReclaimsVictim) {
  // A checkpoint lands while a spill RPC is in flight: the GC sweep frees
  // the victim before the gateway acks, the server revalidates and must
  // abandon the eviction instead of double-freeing log bytes. Four puts
  // leave each server 1 MiB per version: a 2-version store window whose
  // buffers the log shares, plus 2 log-only versions, 4 MiB governed. The
  // 5 MiB budget's 3.5 MiB soft mark is below that, so maintenance spills;
  // 6 MiB's 4.2 MiB is not. (Measured: 4 and 5 MiB abort a spill here, 3
  // and 6 MiB do not.)
  Rig rig(2, /*budget_bytes=*/5 * kMiB);
  auto producer = rig.make_client(0);
  auto consumer = rig.make_client(1);
  sim::spawn(rig.eng, [&]() -> sim::Task<void> {
    sim::Ctx ctx{&rig.eng, nullptr};
    for (Version v = 1; v <= 4; ++v) {
      co_await producer->put(ctx, "f", v, rig.domain);
      co_await consumer->get(ctx, "f", v, rig.domain);
    }
    // The fourth put pushed the governed footprint past the soft mark, so
    // maintenance is now spilling (the PFS open latency keeps each spill
    // in flight for milliseconds). Checkpoint both apps immediately: the
    // sweep reclaims the spill victim under the maintenance coroutine.
    co_await consumer->workflow_check(ctx, 4);
    co_await producer->workflow_check(ctx, 4);
  });
  rig.run();
  EXPECT_GT(rig.stat_sum([](const ServerStats& s) {
    return s.spills_aborted;
  }), 0u);
  // The aborted spill's gateway copy is an orphan, not a leak: the server
  // no longer indexes it, so reads never see it.
  for (const auto& s : rig.servers) EXPECT_TRUE(s->spilled().empty());
}

TEST(StagingGovernorTest, ReplayFaultsSpilledPayloadBackIn) {
  // A consumer's logged read is replayed after a restart; by then the
  // version has been spilled to the PFS. The server faults it back into
  // the log transparently and serves verified content.
  Rig rig(2, /*budget_bytes=*/6 * kMiB);
  auto producer = rig.make_client(0);
  auto consumer = rig.make_client(1);
  std::uint64_t got = 0;
  int bad = 0;
  bool was_spilled = false;
  sim::spawn(rig.eng, [&]() -> sim::Task<void> {
    sim::Ctx ctx{&rig.eng, nullptr};
    co_await producer->put(ctx, "f", 1, rig.domain);
    co_await consumer->get(ctx, "f", 1, rig.domain);  // recorded for replay
    // Enough newer versions to push v1 out of the base window and spill it
    // out of the log.
    for (Version v = 2; v <= 8; ++v)
      co_await producer->put(ctx, "f", v, rig.domain);
    co_await ctx.delay(sim::seconds(1));  // let maintenance drain
    for (const auto& s : rig.servers)
      was_spilled |= !s->spilled().empty();

    // Consumer restarts from scratch and replays its read of v1.
    co_await consumer->workflow_restart(ctx, 0);
    auto gr = co_await consumer->get(ctx, "f", 1, rig.domain);
    got = gr.nominal_bytes;
    bad = gr.wrong_version + gr.corrupt;
  });
  rig.run();
  EXPECT_TRUE(was_spilled);
  EXPECT_EQ(got, rig.domain.volume() * 8);
  EXPECT_EQ(bad, 0);
  EXPECT_GT(rig.stat_sum([](const ServerStats& s) {
    return s.spill_fetches;
  }), 0u);
  EXPECT_GT(rig.gateway->stats().fetches, 0u);
}

TEST(StagingGovernorTest, SpilledThenFaultedBackCountsOnce) {
  // Two replay reads of the same spilled version race: both miss the log,
  // both issue a gateway fetch, and the second fetch lands after the first
  // already re-ingested the payload. Re-adding it again would double-count
  // the governed footprint forever (the log would hold two copies of the
  // version's chunks). Property: the final per-server footprint with a
  // racing fault-in is identical to the single-reader footprint.
  auto run_replay = [](int concurrent_reads) {
    Rig rig(2, /*budget_bytes=*/6 * kMiB);
    auto producer = rig.make_client(0);
    auto consumer = rig.make_client(1);
    bool was_spilled = false;
    int bad = 0;
    int finished = 0;
    sim::spawn(rig.eng, [&, concurrent_reads]() -> sim::Task<void> {
      sim::Ctx ctx{&rig.eng, nullptr};
      co_await producer->put(ctx, "f", 1, rig.domain);
      co_await consumer->get(ctx, "f", 1, rig.domain);  // recorded for replay
      for (Version v = 2; v <= 8; ++v)
        co_await producer->put(ctx, "f", v, rig.domain);
      co_await ctx.delay(sim::seconds(1));  // let maintenance spill v1
      for (const auto& s : rig.servers) was_spilled |= !s->spilled().empty();
      co_await consumer->workflow_restart(ctx, 0);
      for (int r = 0; r < concurrent_reads; ++r) {
        sim::spawn(rig.eng, [&]() -> sim::Task<void> {
          sim::Ctx rctx{&rig.eng, nullptr};
          auto gr = co_await consumer->get(rctx, "f", 1, rig.domain);
          bad += gr.wrong_version + gr.corrupt;
          ++finished;
        });
      }
    });
    rig.run();
    EXPECT_TRUE(was_spilled);
    EXPECT_EQ(bad, 0);
    EXPECT_EQ(finished, concurrent_reads);
    // Payload bytes only: the extra reader legitimately appends one more
    // read event to the replay script (log metadata); what must NOT grow
    // is the payload accounting — a second copy of the version's chunks.
    std::vector<std::uint64_t> payload;
    for (const auto& s : rig.servers) {
      const auto m = s->memory();
      payload.push_back(m.store_bytes + m.log_payload_bytes);
    }
    return payload;
  };
  const auto solo = run_replay(1);
  const auto raced = run_replay(2);
  // Same puts, same spill, same faulted-back version — a racing second
  // reader must not inflate any server's payload footprint.
  EXPECT_EQ(solo, raced);
}

TEST(StagingGovernorTest, BouncedPutIsNotAckedUntilDurable) {
  // A put fans out one message per piece, and under a tight budget some of
  // them cross the hard watermark and bounce with RetryLater while their
  // siblings are admitted. The put must not return until every bounced
  // piece was re-sent and admitted: each version reads back in full the
  // moment its put() returns.
  Rig rig(2, /*budget_bytes=*/6 * kMiB);
  auto producer = rig.make_client(0);
  auto consumer = rig.make_client(1);
  std::vector<std::uint64_t> got;
  int bad = 0;
  sim::spawn(rig.eng, [&]() -> sim::Task<void> {
    sim::Ctx ctx{&rig.eng, nullptr};
    for (Version v = 1; v <= 10; ++v) {
      co_await producer->put(ctx, "f", v, rig.domain);
      auto gr = co_await consumer->get(ctx, "f", v, rig.domain);
      got.push_back(gr.nominal_bytes);
      bad += gr.wrong_version + gr.corrupt;
    }
  });
  rig.run();
  ASSERT_EQ(got.size(), 10u);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], rig.domain.volume() * 8) << "v" << i + 1;
  }
  EXPECT_EQ(bad, 0);
  // The bounces really happened, and the transport waited them out.
  EXPECT_GT(producer->rpc_stats().backpressure_waits, 0u);
  EXPECT_GT(rig.stat_sum([](const ServerStats& s) {
    return s.puts_rejected;
  }), 0u);
}

// --- Charge-once accounting ------------------------------------------------
//
// A server charges each piece of its one version store once, however many
// holders keep it, and keeps that footprint current as pieces gain and
// lose holders. After every step of a randomized schedule, and every 5 ms
// of virtual time in between, that running footprint must equal a recount
// from scratch over the window's and the log's views that charges each
// distinct payload buffer once, pooled and per tenant. The schedule interleaves raw-log, encoded-log and unlogged
// puts, window rotation, checkpoint-driven GC, spills and fault-ins,
// tenant rollbacks and a standby's join (the resilver drops pieces at the
// source).

/// Each distinct payload buffer a server holds, charged once at its larger
/// stored size: the footprint recomputed from the holders' contents.
struct Recount {
  std::uint64_t pooled = 0;
  std::map<net::TenantId, std::uint64_t> tenant;
};

Recount recount(const StagingServer& s) {
  std::map<const void*, std::pair<net::TenantId, std::uint64_t>> buffers;
  const auto visit = [&](const std::vector<Chunk>& pieces) {
    for (const Chunk& c : pieces) {
      auto& [tenant, bytes] = buffers[c.data.get()];
      tenant = tenant_of(c.var);
      bytes = std::max(bytes, c.accounted_bytes());
    }
  };
  const ObjectStore& store = s.store();
  for (const std::string& var : store.variables()) {
    for (Version v : store.versions_of(var)) visit(store.chunks_of(var, v));
  }
  const wlog::DataLog& log = s.data_log();
  for (const std::string& var : log.variables()) {
    for (Version v : log.versions_of(var)) visit(log.chunks_of(var, v));
  }
  Recount r;
  for (const auto& [buffer, held] : buffers) {
    r.pooled += held.second;
    r.tenant[held.first] += held.second;
  }
  return r;
}

/// Two active servers — server 0 logs raw buffers, server 1 delta+LZ
/// encodes — plus a raw standby that joins mid-run, under a governor with
/// a spill gateway; two tenants.
struct AccountingRig {
  static constexpr int kServers = 3;
  sim::Engine eng;
  net::Fabric fabric{eng, {}};
  cluster::Cluster cluster{eng, fabric};
  cluster::Pfs pfs{eng, {}};
  Box domain = Box::from_dims(64, 64, 64);  // 2 MiB nominal per version
  dht::SpatialIndex index{domain, kServers - 1, 8};
  std::vector<cluster::VprocId> server_vprocs;
  std::vector<std::unique_ptr<StagingServer>> servers;
  std::unique_ptr<SpillGateway> gateway;
  std::unique_ptr<GroupManager> group;
  std::unique_ptr<net::Rpc> control;

  explicit AccountingRig(std::uint64_t budget_bytes) {
    std::vector<StagingServer*> raw;
    for (int s = 0; s < kServers; ++s) {
      ServerParams params;
      params.logging = true;
      params.governor.memory_budget = budget_bytes;
      if (s == 1) params.log_codec = wlog::codec::Scheme::kDeltaLz;
      auto vp =
          cluster.add_vproc("srv" + std::to_string(s), cluster.add_node());
      server_vprocs.push_back(vp);
      servers.push_back(std::make_unique<StagingServer>(cluster, vp, params));
      servers.back()->register_var("f", {{1, true}});
      servers.back()->register_var(tenant_key(1, "f"), {{3, true}});
      raw.push_back(servers.back().get());
    }
    std::vector<net::EndpointId> endpoints;
    for (auto vp : server_vprocs)
      endpoints.push_back(cluster.vproc(vp).endpoint);
    auto gw_vp = cluster.add_vproc("spill-gw", cluster.add_node());
    gateway = std::make_unique<SpillGateway>(cluster, gw_vp, pfs);
    gateway->start();
    for (std::size_t s = 0; s < servers.size(); ++s) {
      servers[s]->set_peers(static_cast<int>(s), endpoints);
      servers[s]->set_group_index(&index);
      servers[s]->apply_membership(index.active_servers());
      servers[s]->set_spill_endpoint(gateway->endpoint());
      servers[s]->start();
    }
    group = std::make_unique<GroupManager>(
        cluster, cluster.add_vproc("group-mgr", cluster.add_node()), index,
        std::move(raw));
    group->start();
    control = std::make_unique<net::Rpc>(
        fabric, cluster.vproc(cluster.add_vproc("ctl", cluster.add_node()))
                    .endpoint);
  }

  std::unique_ptr<StagingClient> make_client(AppId app, net::TenantId tenant,
                                             bool logged) {
    auto vp =
        cluster.add_vproc("app" + std::to_string(app), cluster.add_node());
    ClientParams cp;
    cp.app = app;
    cp.tenant = tenant;
    cp.logged = logged;
    cp.mem_scale = 4096;
    cp.put_timeout = sim::seconds(15);
    cp.get_timeout = sim::seconds(30);
    auto client = std::make_unique<StagingClient>(cluster, index,
                                                  server_vprocs, vp, cp);
    client->set_group_endpoint(group->endpoint());
    return client;
  }

  /// Every server's running footprint against its recount; `when` names
  /// the step in failure messages. Returns false on the first mismatch.
  bool charged_once(const std::string& when) const {
    for (std::size_t s = 0; s < servers.size(); ++s) {
      const Recount r = recount(*servers[s]);
      const MemoryReport m = servers[s]->memory();
      const std::uint64_t pooled = m.governed() - m.log_metadata_bytes;
      bool ok = pooled == r.pooled;
      EXPECT_EQ(pooled, r.pooled) << "server " << s << " " << when;
      for (net::TenantId t : {0, 1}) {
        const auto it = r.tenant.find(t);
        const std::uint64_t expected = it == r.tenant.end() ? 0 : it->second;
        ok = ok && servers[s]->memory(t).governed() == expected;
        EXPECT_EQ(servers[s]->memory(t).governed(), expected)
            << "server " << s << " tenant " << t << " " << when;
      }
      if (!ok) return false;
    }
    return true;
  }

  template <class Pick>
  std::uint64_t stat_sum(Pick pick) const {
    std::uint64_t total = 0;
    for (const auto& s : servers) total += pick(s->stats());
    return total;
  }

  // Server loops wait on their mailboxes forever: unwind every parked
  // process so its coroutine frames are freed.
  ~AccountingRig() {
    cluster.cancel_all();
    eng.run();
  }
};

/// One tenant's producer/consumer pair and its replay bookkeeping.
struct TenantFlow {
  std::unique_ptr<StagingClient> producer;
  std::unique_ptr<StagingClient> consumer;
  Version next = 1;              // producer's next version
  Version checkpoint = 0;        // last durable checkpoint of both apps
  std::vector<Version> consumed;  // reads since the checkpoint, in order
};

TEST(StagingGovernorTest, RunningFootprintEqualsRecountByBuffer) {
  struct {
    std::uint64_t rollbacks = 0, spills = 0, fetches = 0, gc_drops = 0,
                  resilvered = 0;
  } exercised;
  for (std::uint32_t seed = 1; seed <= 4; ++seed) {
    AccountingRig rig(/*budget_bytes=*/10 * kMiB);
    TenantFlow flows[2];
    for (net::TenantId t : {0, 1}) {
      flows[t].producer = rig.make_client(2 * t, t, true);
      flows[t].consumer = rig.make_client(2 * t + 1, t, true);
    }
    auto plain = rig.make_client(4, 0, /*logged=*/false);
    Version plain_next = 1;
    bool joined = false;
    int rollbacks = 0;
    bool finished = false;
    bool consistent = true;
    std::mt19937 rng(seed);
    const auto check = [&](const std::string& when) {
      consistent = consistent && rig.charged_once(when);
    };

    // Between steps: check every 5 ms, so spills, fault-ins and resilver
    // transfers are caught mid-flight too.
    sim::spawn(rig.eng, [&]() -> sim::Task<void> {
      sim::Ctx ctx{&rig.eng, nullptr};
      while (!finished && consistent) {
        co_await ctx.delay(sim::milliseconds(5));
        check("between steps");
      }
    });
    sim::spawn(rig.eng, [&]() -> sim::Task<void> {
      sim::Ctx ctx{&rig.eng, nullptr};
      for (int step = 0; step < 40 && consistent; ++step) {
        const int action = static_cast<int>(rng() % 8);
        const net::TenantId tenant = static_cast<net::TenantId>(rng() % 2);
        TenantFlow& flow = flows[tenant];
        const std::string when = "seed " + std::to_string(seed) + " step " +
                                 std::to_string(step) + " action " +
                                 std::to_string(action);
        if (action <= 2) {  // logged put (rotates the window) + its read
          const Version v = flow.next++;
          co_await flow.producer->put(ctx, "f", v, rig.domain);
          co_await flow.consumer->get(ctx, "f", v, rig.domain);
          flow.consumed.push_back(v);
        } else if (action == 3) {  // unlogged put
          co_await plain->put(ctx, "u", plain_next++, rig.domain);
        } else if (action == 4 && !flow.consumed.empty()) {
          // Durable checkpoint of both apps: GC sweeps the log behind it.
          flow.checkpoint = flow.consumed.back();
          flow.consumed.clear();
          co_await flow.consumer->workflow_check(ctx, flow.checkpoint);
          co_await flow.producer->workflow_check(ctx, flow.checkpoint);
        } else if (action == 5) {
          // Consumer restart: replay its reads since the checkpoint,
          // faulting spilled versions back in.
          co_await flow.consumer->workflow_restart(ctx, flow.checkpoint);
          for (Version v : flow.consumed)
            co_await flow.consumer->get(ctx, "f", v, rig.domain);
        } else if (action == 6 && flow.next > flow.checkpoint + 1) {
          // Tenant rollback to the checkpoint: both holders drop the
          // newer versions (and the spill index forgets them).
          co_await flow.producer->rollback_staging(ctx, flow.checkpoint,
                                                   tenant);
          flow.next = flow.checkpoint + 1;
          flow.consumed.clear();
          ++rollbacks;
        } else if (action == 7 && !joined && step >= 10) {
          joined = true;  // the standby joins: sources resilver and drop
          JoinGroup req;
          req.server = AccountingRig::kServers - 1;
          co_await rig.control->call(ctx, rig.group->endpoint(),
                                     std::move(req));
        } else {
          continue;
        }
        check(when);
      }
      finished = true;
    });
    rig.eng.run();
    EXPECT_TRUE(finished) << "seed " << seed;
    EXPECT_TRUE(consistent) << "seed " << seed;
    EXPECT_TRUE(joined) << "seed " << seed;
    exercised.rollbacks += rollbacks;
    exercised.spills += rig.stat_sum([](const ServerStats& s) {
      return s.spill_versions;
    });
    exercised.fetches += rig.stat_sum([](const ServerStats& s) {
      return s.spill_fetches;
    });
    exercised.gc_drops += rig.stat_sum([](const ServerStats& s) {
      return s.gc_versions_dropped;
    });
    exercised.resilvered += rig.stat_sum([](const ServerStats& s) {
      return s.resilver_chunks_out;
    });
  }
  // Every path the schedules are meant to exercise really ran.
  EXPECT_GT(exercised.rollbacks, 0u);
  EXPECT_GT(exercised.spills, 0u);
  EXPECT_GT(exercised.fetches, 0u);
  EXPECT_GT(exercised.gc_drops, 0u);
  EXPECT_GT(exercised.resilvered, 0u);
}

}  // namespace
}  // namespace dstage::staging
