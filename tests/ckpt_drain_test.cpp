// Drain agent under memory-governor pressure. Only a drain's ack advances
// the staging GC watermark and frees the log, so a governor that stays
// loaded can only be relieved by the drain it is stalling: the backoff
// must give up after a bounded number of stalls and drain anyway.
#include "ckpt/drain.hpp"

#include <gtest/gtest.h>

#include <utility>

#include "net/message.hpp"
#include "sim/spawn.hpp"

namespace dstage::ckpt {
namespace {

TEST(DrainAgentTest, DrainsDespitePressureThatNeverFalls) {
  sim::Engine eng;
  net::Fabric fabric{eng, {}};
  cluster::Cluster cluster{eng, fabric};
  cluster::Pfs pfs{eng, {}};
  CheckpointHierarchy hierarchy(2);
  const net::NodeId node = cluster.add_node();
  const cluster::VprocId agent_vp = cluster.add_vproc("ckpt-drain", node);
  const cluster::VprocId client_vp = cluster.add_vproc("client", node);

  DrainAgent agent(cluster, agent_vp, pfs, hierarchy);
  agent.set_pressure([] { return 2.0; });  // stuck above the soft watermark
  agent.start();

  // Cache a set, then announce its parity: the agent starts draining.
  hierarchy.write_set(0, 1, 4096);
  net::Rpc rpc(fabric, cluster.vproc(client_vp).endpoint);
  sim::spawn(eng, [&]() -> sim::Task<void> {
    sim::Ctx ctx = cluster.ctx_for(client_vp);
    net::Message shard{net::CkptXorShard{0, 1, 2048}};
    co_await rpc.send(ctx, agent.endpoint(), std::move(shard));
  });
  // An unbounded backoff never goes idle, so bound the run instead of
  // waiting for the engine to drain.
  eng.run_until(sim::TimePoint{} + sim::seconds(10));

  EXPECT_EQ(hierarchy.set_state(0, 1), SetState::kPfsComplete);
  EXPECT_EQ(hierarchy.stats().drains_completed, 1u);
  EXPECT_LE(agent.stats().pressure_stalls, 7u);

  // The agent waits on its mailbox forever: unwind it so its coroutine
  // frames are freed.
  cluster.cancel_all();
  eng.run_until(sim::TimePoint{} + sim::seconds(20));
}

}  // namespace
}  // namespace dstage::ckpt
