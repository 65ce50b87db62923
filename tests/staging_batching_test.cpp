// Opt-in request coalescing (net::Config::batching): the client's DHT
// shard fan-out aggregates same-destination chunk puts into one BatchPut
// per server. Off by default; with it on, the same data lands with fewer
// fabric messages and identical read results.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "cluster/cluster.hpp"
#include "core/executor.hpp"
#include "core/setups.hpp"
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

  explicit Rig(int nservers) : index(domain, nservers, 8) {
    ServerParams sp;
    sp.logging = true;
    for (int s = 0; s < nservers; ++s) {
      auto vp =
          cluster.add_vproc("srv" + std::to_string(s), cluster.add_node());
      server_vprocs.push_back(vp);
      servers.push_back(std::make_unique<StagingServer>(cluster, vp, sp));
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

  std::unique_ptr<StagingClient> make_client(AppId app, bool batching) {
    auto vp =
        cluster.add_vproc("app" + std::to_string(app), cluster.add_node());
    ClientParams cp;
    cp.app = app;
    cp.logged = true;
    cp.mem_scale = 4096;
    cp.batching = batching;
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

struct PutOutcome {
  PutResult put;
  GetResult get;
  std::uint64_t fabric_packets = 0;
  std::uint64_t fabric_bytes = 0;
  std::uint64_t server_puts = 0;
  std::uint64_t batch_puts = 0;
};

PutOutcome run_one(bool batching) {
  Rig rig(4);
  auto producer = rig.make_client(0, batching);
  auto consumer = rig.make_client(1, /*batching=*/false);
  PutOutcome out;
  sim::spawn(rig.eng, [&]() -> sim::Task<void> {
    sim::Ctx ctx{&rig.eng, nullptr};
    out.put = co_await producer->put(ctx, "f", 1, rig.domain);
    out.fabric_packets = rig.fabric.packets_sent();
    out.fabric_bytes = rig.fabric.bytes_sent();
    out.get = co_await consumer->get(ctx, "f", 1, rig.domain);
  });
  rig.eng.run();
  for (const auto& s : rig.servers) {
    out.server_puts += s->stats().puts;
    out.batch_puts += s->stats().batch_puts;
  }
  return out;
}

TEST(StagingBatchingTest, CoalescesShardFanOutIntoOneMessagePerServer) {
  const PutOutcome off = run_one(false);
  const PutOutcome on = run_one(true);

  // Same write, same shards, same per-chunk server work.
  EXPECT_EQ(on.put.pieces, off.put.pieces);
  EXPECT_EQ(on.put.nominal_bytes, off.put.nominal_bytes);
  EXPECT_EQ(on.server_puts, off.server_puts);

  // Without batching every piece is a message; with it, one per server.
  EXPECT_EQ(off.put.messages, off.put.pieces);
  EXPECT_EQ(off.batch_puts, 0u);
  ASSERT_GT(off.put.pieces, 4u);  // the sweep actually fans out
  EXPECT_EQ(on.put.messages, 4u);
  EXPECT_EQ(on.batch_puts, 4u);
  EXPECT_LT(on.fabric_packets, off.fabric_packets);

  // The envelope saving is real but bounded: one 64 B header per
  // coalesced chunk replaces a full per-message object header.
  EXPECT_LT(on.fabric_bytes, off.fabric_bytes);

  // Readers cannot tell the difference.
  EXPECT_EQ(on.get.nominal_bytes, off.get.nominal_bytes);
  EXPECT_EQ(on.get.wrong_version, 0);
  EXPECT_EQ(on.get.corrupt, 0);
}

TEST(StagingBatchingTest, WorkflowRunsCleanWithBatchingOn) {
  core::WorkflowSpec spec =
      core::table2_setup(core::Scheme::kUncoordinated);
  spec.total_ts = 6;
  spec.net.batching = true;
  core::WorkflowRunner runner(std::move(spec));
  const core::RunMetrics m = runner.run();

  EXPECT_EQ(m.total_anomalies(), 0);
  EXPECT_GT(m.staging.batch_puts, 0u);
  EXPECT_GT(m.staging.puts, m.staging.batch_puts);  // real coalescing

  // The same spec without batching stages the same chunk population.
  core::WorkflowSpec base =
      core::table2_setup(core::Scheme::kUncoordinated);
  base.total_ts = 6;
  core::WorkflowRunner base_runner(std::move(base));
  const core::RunMetrics b = base_runner.run();
  EXPECT_EQ(m.staging.puts, b.staging.puts);
  EXPECT_EQ(b.staging.batch_puts, 0u);
  EXPECT_LT(m.fabric_packets, b.fabric_packets);
}

}  // namespace
}  // namespace dstage::staging
