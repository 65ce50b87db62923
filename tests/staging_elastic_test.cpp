// Elastic staging group, end to end: standbys join mid-workload behind a
// background resilver, retirees drain before leaving, stale client views
// bounce with a typed wrong-epoch reject and refresh, and degraded reads
// reconstruct pieces from redundancy fragments while an owner is down.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "core/executor.hpp"
#include "core/setups.hpp"
#include "dht/spatial_index.hpp"
#include "net/rpc.hpp"
#include "sim/spawn.hpp"
#include "staging/client.hpp"
#include "staging/degraded_read.hpp"
#include "staging/group.hpp"
#include "staging/server.hpp"

namespace dstage::staging {
namespace {

ServerParams elastic_params(resilience::Redundancy kind) {
  ServerParams p;
  p.logging = true;
  p.policy.kind = kind;
  p.policy.replicas = 2;
  p.policy.rs_k = 2;
  p.policy.rs_m = 1;
  return p;
}

/// A staging group with live membership: `active` servers in the epoch-0
/// view, `standby` more built but outside it, and a GroupManager driving
/// joins/retires.
struct ElasticRig {
  sim::Engine eng;
  net::Fabric fabric{eng, {}};
  cluster::Cluster cluster{eng, fabric};
  Box domain = Box::from_dims(64, 64, 64);
  dht::SpatialIndex index;
  std::vector<cluster::VprocId> server_vprocs;
  std::vector<std::unique_ptr<StagingServer>> servers;
  std::unique_ptr<GroupManager> group;
  cluster::VprocId control_vproc;
  std::unique_ptr<net::Rpc> control;

  ElasticRig(int active, int standby, ServerParams params)
      : index(domain, active, 8) {
    const int total = active + standby;
    for (int s = 0; s < total; ++s) {
      auto vp =
          cluster.add_vproc("srv" + std::to_string(s), cluster.add_node());
      server_vprocs.push_back(vp);
      servers.push_back(std::make_unique<StagingServer>(cluster, vp, params));
      servers.back()->register_var("f", {{1, true}});
    }
    std::vector<net::EndpointId> endpoints;
    for (auto vp : server_vprocs)
      endpoints.push_back(cluster.vproc(vp).endpoint);
    std::vector<StagingServer*> raw;
    for (std::size_t s = 0; s < servers.size(); ++s) {
      servers[s]->set_peers(static_cast<int>(s), endpoints);
      servers[s]->set_group_index(&index);
      servers[s]->apply_membership(index.active_servers());
      servers[s]->start();
      raw.push_back(servers[s].get());
    }
    auto gm_vproc = cluster.add_vproc("group-mgr", cluster.add_node());
    group = std::make_unique<GroupManager>(cluster, gm_vproc, index,
                                           std::move(raw));
    group->start();
    control_vproc = cluster.add_vproc("ctl", cluster.add_node());
    control = std::make_unique<net::Rpc>(
        fabric, cluster.vproc(control_vproc).endpoint);
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
    auto client = std::make_unique<StagingClient>(cluster, index,
                                                  server_vprocs, vp, cp);
    client->set_group_endpoint(group->endpoint());
    return client;
  }

  sim::Task<GroupChangeAck> change(sim::Ctx ctx, bool join, int server) {
    if (join) {
      JoinGroup req;
      req.server = server;
      co_return co_await control->call(ctx, group->endpoint(), std::move(req));
    }
    RetireServer req;
    req.server = server;
    co_return co_await control->call(ctx, group->endpoint(), std::move(req));
  }

  void run() { eng.run(); }

  // Server loops wait on their mailboxes forever: unwind every parked
  // process so its coroutine frames are freed.
  ~ElasticRig() {
    cluster.cancel_all();
    eng.run();
  }
};

TEST(StagingElasticTest, JoinResilversAndReadsStayEquivalent) {
  ElasticRig rig(2, 1, elastic_params(resilience::Redundancy::kNone));
  auto producer = rig.make_client(0);
  auto consumer = rig.make_client(1);
  int wrong = 0, corrupt = 0;
  std::uint64_t bytes = 0;
  bool joined = false;
  sim::spawn(rig.eng, [&]() -> sim::Task<void> {
    sim::Ctx ctx{&rig.eng, nullptr};
    for (Version v = 1; v <= 3; ++v)
      co_await producer->put(ctx, "f", v, rig.domain);

    GroupChangeAck ack = co_await rig.change(ctx, /*join=*/true, 2);
    joined = ack.ok && ack.server == 2;

    // Every pre-join version must read back intact through the new map.
    for (Version v = 1; v <= 3; ++v) {
      auto gr = co_await consumer->get(ctx, "f", v, rig.domain);
      wrong += gr.wrong_version;
      corrupt += gr.corrupt;
      bytes += gr.nominal_bytes;
    }
    // New writes land on the grown group, including the joiner.
    co_await producer->put(ctx, "f", 4, rig.domain);
  });
  rig.run();
  EXPECT_TRUE(joined);
  EXPECT_EQ(rig.index.epoch(), 1u);
  EXPECT_EQ(wrong, 0);
  EXPECT_EQ(corrupt, 0);
  EXPECT_EQ(bytes, 3u * rig.domain.volume() * 8);
  EXPECT_EQ(rig.group->stats().joins, 1u);
  EXPECT_GT(rig.group->stats().resilver_bytes, 0u);
  // The joiner took real ownership: it now holds data.
  EXPECT_GT(rig.servers[2]->store().nominal_bytes() +
                rig.servers[2]->data_log().nominal_bytes(),
            0u);
}

TEST(StagingElasticTest, RetireDrainsTheLeaverCompletely) {
  ElasticRig rig(3, 0, elastic_params(resilience::Redundancy::kNone));
  auto producer = rig.make_client(0);
  auto consumer = rig.make_client(1);
  bool retired = false;
  int wrong = 0;
  std::uint64_t bytes = 0;
  sim::spawn(rig.eng, [&]() -> sim::Task<void> {
    sim::Ctx ctx{&rig.eng, nullptr};
    for (Version v = 1; v <= 2; ++v)
      co_await producer->put(ctx, "f", v, rig.domain);

    GroupChangeAck ack = co_await rig.change(ctx, /*join=*/false, 1);
    retired = ack.ok && ack.server == 1;

    for (Version v = 1; v <= 2; ++v) {
      auto gr = co_await consumer->get(ctx, "f", v, rig.domain);
      wrong += gr.wrong_version + gr.corrupt;
      bytes += gr.nominal_bytes;
    }
  });
  rig.run();
  EXPECT_TRUE(retired);
  EXPECT_TRUE(rig.servers[1]->drained());
  EXPECT_EQ(rig.index.active_servers(), (std::vector<int>{0, 2}));
  EXPECT_EQ(wrong, 0);
  EXPECT_EQ(bytes, 2u * rig.domain.volume() * 8);
  EXPECT_EQ(rig.group->stats().retires, 1u);
}

TEST(StagingElasticTest, StaleViewBouncesWithWrongEpochAndRefreshes) {
  ElasticRig rig(2, 1, elastic_params(resilience::Redundancy::kNone));
  auto producer = rig.make_client(0);
  sim::spawn(rig.eng, [&]() -> sim::Task<void> {
    sim::Ctx ctx{&rig.eng, nullptr};
    co_await producer->put(ctx, "f", 1, rig.domain);  // caches epoch-0 view
    (void)co_await rig.change(ctx, /*join=*/true, 2);
    // The stale view still routes moved cells to their old owners; those
    // puts bounce wrong_epoch, the client refreshes, and the put lands.
    auto pr = co_await producer->put(ctx, "f", 2, rig.domain);
    EXPECT_GT(pr.wrong_epoch_retries, 0u);
  });
  rig.run();
  EXPECT_GE(producer->epoch_refreshes(), 1u);
  std::uint64_t rejects = 0;
  for (const auto& s : rig.servers) rejects += s->stats().wrong_epoch_rejects;
  EXPECT_GT(rejects, 0u);
}

TEST(StagingElasticTest, DegradedReadsReconstructDuringOwnerOutage) {
  ElasticRig rig(3, 0, elastic_params(resilience::Redundancy::kErasureCode));
  auto producer = rig.make_client(0);
  auto consumer = rig.make_client(1);
  consumer->set_resilience_policy(elastic_params(
      resilience::Redundancy::kErasureCode).policy);
  consumer->set_degraded_reads(true);
  std::set<int> down;
  consumer->set_degraded_probe([&](int server) { return down.count(server) > 0; });
  int wrong = 0;
  std::uint64_t bytes = 0;
  sim::spawn(rig.eng, [&]() -> sim::Task<void> {
    sim::Ctx ctx{&rig.eng, nullptr};
    co_await producer->put(ctx, "f", 1, rig.domain);
    co_await ctx.delay(sim::seconds(2));  // fragments propagate

    down.insert(0);  // owner down, unrecovered
    auto gr = co_await consumer->get(ctx, "f", 1, rig.domain);
    wrong = gr.wrong_version + gr.corrupt;
    bytes = gr.nominal_bytes;
    EXPECT_GT(gr.degraded_pieces, 0u);
  });
  rig.run();
  EXPECT_EQ(wrong, 0);
  EXPECT_EQ(bytes, static_cast<std::uint64_t>(rig.domain.volume()) * 8);
  EXPECT_GT(consumer->degraded_read_count(), 0u);
  std::uint64_t fetches = 0;
  for (const auto& s : rig.servers) fetches += s->stats().fragment_fetches;
  EXPECT_GT(fetches, 0u);
}

TEST(StagingElasticTest, LossBeyondToleranceIsTypedDataLossNotTimeout) {
  // RS(2,1): three fragments per chunk. With the owner and one fragment
  // holder both gone, a single surviving shard is below k — the get must
  // fail fast with the typed DataLossError, not hang into an rpc timeout.
  ElasticRig rig(3, 0, elastic_params(resilience::Redundancy::kErasureCode));
  auto producer = rig.make_client(0);
  auto consumer = rig.make_client(1);
  consumer->set_resilience_policy(elastic_params(
      resilience::Redundancy::kErasureCode).policy);
  consumer->set_degraded_reads(true);
  std::set<int> down;
  consumer->set_degraded_probe([&](int server) { return down.count(server) > 0; });
  bool typed_loss = false;
  sim::TimePoint failed_at{};
  sim::spawn(rig.eng, [&]() -> sim::Task<void> {
    sim::Ctx ctx{&rig.eng, nullptr};
    co_await producer->put(ctx, "f", 1, rig.domain);
    co_await ctx.delay(sim::seconds(2));

    down.insert(0);
    down.insert(1);
    try {
      (void)co_await consumer->get(ctx, "f", 1, rig.domain);
    } catch (const DataLossError& e) {
      typed_loss = true;
      failed_at = rig.eng.now();
      EXPECT_EQ(e.var(), "f");
    }
  });
  rig.run();
  EXPECT_TRUE(typed_loss);
  // Fail-fast: well under the client's 30 s get timeout window.
  EXPECT_LT(failed_at.ns, sim::seconds(20).ns);
}

/// Redundancy traffic a server has received: fragments stored plus
/// duplicate pushes it skipped.
std::uint64_t fragments_received(const StagingServer& s) {
  return s.stats().fragments_held + s.stats().fragments_deduped;
}

/// `view` minus `server`.
std::vector<int> without(std::vector<int> view, int server) {
  std::erase(view, server);
  return view;
}

TEST(StagingElasticTest, RetireDuringFragmentPushTargetsOnlyTheCurrentView) {
  // Four full copies of one cell's chunk: the owner pushes them one at a
  // time through a slow NIC. The peer the last copy was headed for retires
  // while the first is still on the wire. The owner once kept the
  // pre-retire group size and indexed past the end of the new view; now
  // every copy lands on a distinct peer of the shrunken view, which has
  // room for two.
  ServerParams params = elastic_params(resilience::Redundancy::kReplication);
  params.policy.replicas = 4;
  ElasticRig rig(4, 0, params);
  const Box cell{{0, 0, 0}, {7, 7, 7}};
  const int owner = rig.index.server_of(cell.lo);
  const int retiree = (owner + 3) % 4;
  rig.fabric.set_node_injection_bw(
      rig.cluster.vproc(rig.server_vprocs[static_cast<std::size_t>(owner)])
          .node,
      1e6);
  auto producer = rig.make_client(0);
  std::uint64_t received_at_retire = 0;
  sim::spawn(rig.eng, [&]() -> sim::Task<void> {
    sim::Ctx ctx{&rig.eng, nullptr};
    co_await producer->put(ctx, "f", 1, cell);
    for (const auto& s : rig.servers)
      received_at_retire += fragments_received(*s);
    const std::vector<int> view = without(rig.index.active_servers(), retiree);
    for (const auto& s : rig.servers) s->apply_membership(view);
  });
  rig.run();
  EXPECT_LT(received_at_retire, 2u);  // the retire landed mid-push
  for (int s = 0; s < 4; ++s) {
    const bool in_view = s != owner && s != retiree;
    EXPECT_EQ(fragments_received(*rig.servers[static_cast<std::size_t>(s)]),
              in_view ? 1u : 0u)
        << "server " << s;
  }
}

TEST(StagingElasticTest, ReplicaSuccessorFollowsMembership) {
  // With two replicas the owner pushes each put's one copy to its
  // successor in the active view (slot 1): the join of a standby and a
  // later retire both move it.
  ElasticRig rig(3, 1, elastic_params(resilience::Redundancy::kReplication));
  const Box cell{{0, 0, 0}, {7, 7, 7}};
  const int owner = rig.index.server_of(cell.lo);
  auto producer = rig.make_client(0);
  std::vector<int> got;  // the server whose fragment count rose, per put
  sim::spawn(rig.eng, [&]() -> sim::Task<void> {
    sim::Ctx ctx{&rig.eng, nullptr};
    auto put_and_find_replica = [&](Version v) -> sim::Task<void> {
      std::vector<std::uint64_t> before;
      for (const auto& s : rig.servers)
        before.push_back(s->stats().fragments_held);
      co_await producer->put(ctx, "f", v, cell);
      co_await ctx.delay(sim::seconds(1));
      int holder = -1;
      for (std::size_t s = 0; s < rig.servers.size(); ++s) {
        if (rig.servers[s]->stats().fragments_held == before[s]) continue;
        holder = holder < 0 ? static_cast<int>(s) : -2;  // -2: ambiguous
      }
      got.push_back(holder);
    };
    co_await put_and_find_replica(1);
    for (const auto& s : rig.servers) s->apply_membership({0, 1, 2, 3});
    co_await put_and_find_replica(2);
    const std::vector<int> view = without({0, 1, 2, 3}, (owner + 1) % 4);
    for (const auto& s : rig.servers) s->apply_membership(view);
    co_await put_and_find_replica(3);
  });
  rig.run();
  const std::vector<int> three = {0, 1, 2};
  const std::vector<int> four = {0, 1, 2, 3};
  const std::vector<int> shrunk = without(four, (owner + 1) % 4);
  auto successor = [&](const std::vector<int>& view) {
    const auto pos = std::find(view.begin(), view.end(), owner) - view.begin();
    return view[static_cast<std::size_t>(pos + 1) % view.size()];
  };
  EXPECT_EQ(got, (std::vector<int>{successor(three), successor(four),
                                   successor(shrunk)}));
}

TEST(StagingElasticTest, WorkflowGrowsAndShrinksMidRun) {
  // The acceptance scenario: a 3-server group grows to 5 and shrinks back
  // to 3 mid-workflow, with every read equivalent across epochs.
  core::WorkflowSpec spec = core::table2_setup(core::Scheme::kUncoordinated);
  spec.total_ts = 12;
  spec.staging_servers = 3;
  spec.elastic.standby_servers = 2;
  spec.elastic.events = {{3, true, -1},
                         {5, true, -1},
                         {8, false, -1},
                         {10, false, -1}};
  core::WorkflowRunner runner(std::move(spec));
  core::RunMetrics m = runner.run();

  EXPECT_EQ(m.total_anomalies(), 0);
  EXPECT_EQ(m.staging.membership_joins, 2u);
  EXPECT_EQ(m.staging.membership_retires, 2u);
  EXPECT_EQ(m.staging.membership_epoch, 4u);
  EXPECT_GT(m.staging.resilver_bytes_moved, 0u);
  for (const auto& c : m.components) EXPECT_EQ(c.timesteps_done, 12);
  EXPECT_EQ(runner.runtime().services().index->active_servers().size(), 3u);
}

TEST(StagingElasticTest, ElasticSpecValidationRejectsNonsense) {
  core::WorkflowSpec spec = core::table2_setup(core::Scheme::kUncoordinated);
  spec.elastic.standby_servers = -1;
  EXPECT_THROW(spec.validate(), std::invalid_argument);

  spec = core::table2_setup(core::Scheme::kUncoordinated);
  spec.elastic.events = {{1, true, -1}};  // join with no standby built
  EXPECT_THROW(spec.validate(), std::invalid_argument);

  spec = core::table2_setup(core::Scheme::kUncoordinated);
  spec.staging_servers = 1;
  spec.elastic.events = {{1, false, -1}};  // retire would empty the group
  EXPECT_THROW(spec.validate(), std::invalid_argument);

  spec = core::table2_setup(core::Scheme::kUncoordinated);
  spec.elastic.degraded_reads = true;  // no redundancy policy configured
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

}  // namespace
}  // namespace dstage::staging
