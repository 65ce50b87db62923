// Elastic staging group: membership churn against the fixed-group
// baseline. Three workflow scenarios sweep join/leave events over the
// Table II logged setup — a join storm (3 servers grow to 5), the paper's
// full grow/shrink episode (3 -> 5 -> 3), and a retire under governor
// pressure — reporting the data the resilver moved, the time it spent
// moving it, and the execution-time delta the churn cost the workflow.
// A fourth scenario measures degraded-read latency at the staging layer:
// RS(2, 1) reads served by fragment reconstruction while the chunk owner
// is down, next to the same reads served healthy.
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "cluster/cluster.hpp"
#include "dht/spatial_index.hpp"
#include "net/rpc.hpp"
#include "sim/spawn.hpp"
#include "staging/client.hpp"
#include "staging/group.hpp"
#include "staging/server.hpp"

namespace dstage {
namespace {

/// One workflow cell: Table II uncoordinated-logging run with the given
/// elastic shape.
core::WorkflowSpec elastic_spec(std::uint64_t seed, int servers, int standby,
                                std::vector<core::ElasticEvent> events,
                                std::uint64_t budget_mb) {
  auto spec = core::table2_setup(core::Scheme::kUncoordinated);
  spec.failures.seed = seed;
  spec.staging_servers = servers;
  spec.elastic.standby_servers = standby;
  spec.elastic.events = std::move(events);
  spec.staging.memory_budget = budget_mb << 20;
  return spec;
}

struct DegradedPoint {
  double healthy_get_s = 0;   // mean healthy read latency
  double degraded_get_s = 0;  // mean reconstructed read latency
  std::uint64_t degraded_read_count = 0;
  std::uint64_t fragment_fetches = 0;
  std::uint64_t bytes_read = 0;
};

/// Staging-layer degraded-read latency: a 3-server RS(2, 1) group serves
/// the same reads healthy and with the owner down (reconstructing every
/// piece from the surviving k fragments).
DegradedPoint run_degraded(staging::Version versions) {
  sim::Engine eng;
  net::Fabric fabric{eng, {}};
  cluster::Cluster cluster{eng, fabric};
  const Box domain = Box::from_dims(64, 64, 64);
  dht::SpatialIndex index(domain, 3, 8);

  staging::ServerParams params;
  params.logging = true;
  params.policy.kind = resilience::Redundancy::kErasureCode;
  params.policy.rs_k = 2;
  params.policy.rs_m = 1;

  std::vector<cluster::VprocId> vprocs;
  std::vector<std::unique_ptr<staging::StagingServer>> servers;
  for (int s = 0; s < 3; ++s) {
    auto vp = cluster.add_vproc("srv" + std::to_string(s), cluster.add_node());
    vprocs.push_back(vp);
    servers.push_back(
        std::make_unique<staging::StagingServer>(cluster, vp, params));
    servers.back()->register_var("f", {{1, true}});
  }
  std::vector<net::EndpointId> endpoints;
  for (auto vp : vprocs) endpoints.push_back(cluster.vproc(vp).endpoint);
  std::vector<staging::StagingServer*> raw;
  for (std::size_t s = 0; s < servers.size(); ++s) {
    servers[s]->set_peers(static_cast<int>(s), endpoints);
    servers[s]->set_group_index(&index);
    servers[s]->apply_membership(index.active_servers());
    servers[s]->start();
    raw.push_back(servers[s].get());
  }
  auto gm_vproc = cluster.add_vproc("group-mgr", cluster.add_node());
  staging::GroupManager group(cluster, gm_vproc, index, std::move(raw));
  group.start();

  auto make_client = [&](staging::AppId app) {
    auto vp =
        cluster.add_vproc("app" + std::to_string(app), cluster.add_node());
    staging::ClientParams cp;
    cp.app = app;
    cp.logged = true;
    cp.mem_scale = 4096;
    cp.put_timeout = sim::seconds(15);
    cp.get_timeout = sim::seconds(30);
    auto client = std::make_unique<staging::StagingClient>(cluster, index,
                                                           vprocs, vp, cp);
    client->set_group_endpoint(group.endpoint());
    return client;
  };
  auto producer = make_client(0);
  auto consumer = make_client(1);
  consumer->set_resilience_policy(params.policy);
  consumer->set_degraded_reads(true);
  std::set<int> down;
  consumer->set_degraded_probe(
      [&](int server) { return down.count(server) > 0; });

  DegradedPoint point;
  sim::spawn(eng, [&]() -> sim::Task<void> {
    sim::Ctx ctx{&eng, nullptr};
    for (staging::Version v = 1; v <= versions; ++v)
      co_await producer->put(ctx, "f", v, domain);
    co_await ctx.delay(sim::seconds(2));  // fragments propagate

    for (staging::Version v = 1; v <= versions; ++v) {
      auto gr = co_await consumer->get(ctx, "f", v, domain);
      point.healthy_get_s += gr.response_time.seconds();
    }
    down.insert(0);  // the owner of the lowest cells goes dark, unrecovered
    for (staging::Version v = 1; v <= versions; ++v) {
      auto gr = co_await consumer->get(ctx, "f", v, domain);
      point.degraded_get_s += gr.response_time.seconds();
      point.bytes_read += gr.nominal_bytes;
    }
  });
  eng.run();

  point.healthy_get_s /= versions;
  point.degraded_get_s /= versions;
  point.degraded_read_count = consumer->degraded_read_count();
  for (const auto& s : servers)
    point.fragment_fetches += s->stats().fragment_fetches;
  return point;
}

}  // namespace
}  // namespace dstage

int main(int argc, char** argv) {
  using namespace dstage;
  bench::Harness h("fig_elastic", argc, argv, 3);
  bench::print_header(
      "Elastic staging group — membership churn vs the fixed-group baseline",
      "Table II setup, 40 ts, uncoordinated logging; events fire mid-run.");

  struct Scenario {
    const char* name;
    int servers;
    int standby;
    std::vector<core::ElasticEvent> events;
    std::uint64_t budget_mb;
  };
  const Scenario scenarios[] = {
      {"fixed", 4, 0, {}, 0},
      {"join-storm", 3, 2, {{10, true, -1}, {12, true, -1}}, 0},
      {"grow-shrink",
       3,
       2,
       {{10, true, -1}, {12, true, -1}, {25, false, -1}, {27, false, -1}},
       0},
      {"retire-pressure", 4, 0, {{20, false, -1}}, 1024},
  };

  std::printf("%16s %10s %12s %12s %10s %8s %8s\n", "scenario", "time",
              "moved", "resilver", "epoch", "rejects", "delta");

  double base_time = 0;  // fixed-group run's execution time
  for (const Scenario& sc : scenarios) {
    auto runs = h.sweep([&sc](std::uint64_t seed) {
      return elastic_spec(seed, sc.servers, sc.standby, sc.events,
                          sc.budget_mb);
    });
    const double time = bench::mean_over(
        runs, [](const core::RunMetrics& m) { return m.total_time_s; });
    const double moved = bench::mean_over(runs, [](const core::RunMetrics& m) {
      return static_cast<double>(m.staging.resilver_bytes_moved);
    });
    const double chunks = bench::mean_over(runs, [](const core::RunMetrics& m) {
      return static_cast<double>(m.staging.resilver_chunks_moved);
    });
    const double resilver_s = bench::mean_over(
        runs,
        [](const core::RunMetrics& m) { return m.staging.resilver_time_s; });
    const double epoch = bench::mean_over(runs, [](const core::RunMetrics& m) {
      return static_cast<double>(m.staging.membership_epoch);
    });
    const double rejects = bench::mean_over(
        runs, [](const core::RunMetrics& m) {
          return static_cast<double>(m.staging.wrong_epoch_rejects);
        });
    if (sc.events.empty()) base_time = time;

    std::printf("%16s %9.1fs %12s %10.3fs %10.0f %8.0f %+7.1f%%\n", sc.name,
                time,
                format_bytes(static_cast<std::uint64_t>(moved)).c_str(),
                resilver_s, epoch, rejects,
                base_time > 0 ? bench::pct(time, base_time) : 0.0);

    Json p = Json::object();
    p.set("scenario", sc.name);
    p.set("total_time_s", time);
    p.set("time_delta_pct", base_time > 0 ? bench::pct(time, base_time) : 0.0);
    p.set("bytes_moved", moved);
    p.set("chunks_moved", chunks);
    p.set("resilver_time_s", resilver_s);
    p.set("membership_epoch", epoch);
    p.set("wrong_epoch_rejects", rejects);
    p.set("degraded_read_count", 0.0);
    h.add_point(std::move(p));
  }

  // Degraded-read latency: reconstruction cost on the get path while the
  // chunk owner is down, RS(2, 1), staging layer.
  const DegradedPoint d = run_degraded(4);
  std::printf("%16s %9.3fs vs %.3fs healthy  (%llu reads, %llu fetches)\n",
              "degraded-read", d.degraded_get_s, d.healthy_get_s,
              static_cast<unsigned long long>(d.degraded_read_count),
              static_cast<unsigned long long>(d.fragment_fetches));

  Json p = Json::object();
  p.set("scenario", "degraded-read");
  p.set("healthy_get_s", d.healthy_get_s);
  p.set("degraded_get_s", d.degraded_get_s);
  p.set("latency_delta_pct", d.healthy_get_s > 0
                                 ? bench::pct(d.degraded_get_s, d.healthy_get_s)
                                 : 0.0);
  p.set("bytes_moved", 0.0);
  p.set("resilver_time_s", 0.0);
  p.set("degraded_read_count", static_cast<double>(d.degraded_read_count));
  p.set("fragment_fetches", static_cast<double>(d.fragment_fetches));
  h.add_point(std::move(p));

  return h.finish();
}
