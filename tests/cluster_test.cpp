#include "cluster/cluster.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "cluster/failure.hpp"
#include "cluster/pfs.hpp"
#include "sim/spawn.hpp"

namespace dstage::cluster {
namespace {

struct Rig {
  sim::Engine eng;
  net::Fabric fabric{eng, {}};
  Cluster cluster{eng, fabric};
};

TEST(ClusterTest, AddVprocAssignsEndpointAndToken) {
  Rig rig;
  auto n = rig.cluster.add_node();
  auto vp = rig.cluster.add_vproc("worker", n);
  const Vproc& v = rig.cluster.vproc(vp);
  EXPECT_EQ(v.name, "worker");
  EXPECT_TRUE(v.alive);
  EXPECT_EQ(v.incarnation, 0u);
  EXPECT_GE(v.endpoint, 0);
  EXPECT_NE(v.token, nullptr);
  EXPECT_THROW((void)rig.cluster.vproc(99), std::out_of_range);
}

TEST(ClusterTest, KillCancelsAndNotifiesAfterDetectionDelay) {
  Rig rig;
  rig.cluster.set_detection_delay(sim::milliseconds(500));
  auto vp = rig.cluster.add_vproc("w", rig.cluster.add_node());
  sim::TimePoint detected{.ns = -1};
  bool unwound = false;
  rig.cluster.on_failure([&](VprocId id) {
    EXPECT_EQ(id, vp);
    detected = rig.eng.now();
  });
  sim::spawn(rig.eng, [&]() -> sim::Task<void> {
    auto ctx = rig.cluster.ctx_for(vp);
    try {
      co_await ctx.delay(sim::seconds(100));
    } catch (const sim::Cancelled&) {
      unwound = true;
    }
  });
  rig.eng.schedule_call(sim::seconds(2), [&] { rig.cluster.kill(vp); });
  rig.eng.run();
  EXPECT_TRUE(unwound);
  EXPECT_FALSE(rig.cluster.vproc(vp).alive);
  EXPECT_EQ(detected.ns, (sim::seconds(2) + sim::milliseconds(500)).ns);
  EXPECT_EQ(rig.cluster.kill_count(), 1);
}

TEST(ClusterTest, KillIsIdempotent) {
  Rig rig;
  auto vp = rig.cluster.add_vproc("w", rig.cluster.add_node());
  int notifications = 0;
  rig.cluster.on_failure([&](VprocId) { ++notifications; });
  rig.cluster.kill(vp);
  rig.cluster.kill(vp);
  rig.eng.run();
  EXPECT_EQ(notifications, 1);
  EXPECT_EQ(rig.cluster.kill_count(), 1);
}

TEST(ClusterTest, ReviveBumpsIncarnationAndReArmsToken) {
  Rig rig;
  auto vp = rig.cluster.add_vproc("w", rig.cluster.add_node());
  rig.cluster.kill(vp);
  rig.eng.run();
  rig.cluster.revive(vp);
  const Vproc& v = rig.cluster.vproc(vp);
  EXPECT_TRUE(v.alive);
  EXPECT_EQ(v.incarnation, 1u);
  EXPECT_FALSE(v.token->cancelled());
  // The revived process runs normally.
  bool ran = false;
  sim::spawn(rig.eng, [&]() -> sim::Task<void> {
    auto ctx = rig.cluster.ctx_for(vp);
    co_await ctx.delay(sim::seconds(1));
    ran = true;
  });
  rig.eng.run();
  EXPECT_TRUE(ran);
}

TEST(ClusterTest, ReviveLiveProcessThrows) {
  Rig rig;
  auto vp = rig.cluster.add_vproc("w", rig.cluster.add_node());
  EXPECT_THROW(rig.cluster.revive(vp), std::logic_error);
}

TEST(FailureInjectorTest, UniformPlanWithinWindowSorted) {
  Rig rig;
  FailureInjector inj(rig.cluster, Rng(42));
  inj.add_group({"sim", 256});
  inj.add_group({"analytic", 64});
  auto plan = inj.plan_uniform(10, sim::TimePoint{} + sim::seconds(10),
                               sim::TimePoint{} + sim::seconds(50));
  ASSERT_EQ(plan.size(), 10u);
  for (std::size_t i = 0; i < plan.size(); ++i) {
    EXPECT_GE(plan[i].at.seconds(), 10.0);
    EXPECT_LT(plan[i].at.seconds(), 50.0);
    if (i > 0) {
      EXPECT_GE(plan[i].at.ns, plan[i - 1].at.ns);
    }
    EXPECT_GE(plan[i].group, 0);
    EXPECT_LE(plan[i].group, 1);
  }
}

TEST(FailureInjectorTest, WeightingFavorsLargerGroups) {
  Rig rig;
  FailureInjector inj(rig.cluster, Rng(7));
  inj.add_group({"big", 900});
  inj.add_group({"small", 100});
  auto plan = inj.plan_uniform(2000, sim::TimePoint{},
                               sim::TimePoint{} + sim::seconds(1));
  int big = 0;
  for (const auto& f : plan) big += (f.group == 0);
  EXPECT_NEAR(static_cast<double>(big) / 2000.0, 0.9, 0.03);
}

TEST(FailureInjectorTest, MtbfPlanApproximatesRate) {
  Rig rig;
  FailureInjector inj(rig.cluster, Rng(11));
  inj.add_group({"g", 1});
  // 10,000 s window, MTBF 100 s → ~100 failures.
  auto plan = inj.plan_mtbf(sim::seconds(100), sim::TimePoint{},
                            sim::TimePoint{} + sim::seconds(10000));
  EXPECT_GT(plan.size(), 70u);
  EXPECT_LT(plan.size(), 140u);
}

TEST(FailureInjectorTest, ArmSchedulesKills) {
  Rig rig;
  FailureInjector inj(rig.cluster, Rng(3));
  inj.add_group({"g", 1});
  std::vector<PlannedFailure> plan{
      {sim::TimePoint{} + sim::seconds(1), 0},
      {sim::TimePoint{} + sim::seconds(3), 0},
  };
  std::vector<double> kill_times;
  inj.arm(plan, [&](int group) {
    EXPECT_EQ(group, 0);
    kill_times.push_back(rig.eng.now().seconds());
  });
  rig.eng.run();
  ASSERT_EQ(kill_times.size(), 2u);
  EXPECT_DOUBLE_EQ(kill_times[0], 1.0);
  EXPECT_DOUBLE_EQ(kill_times[1], 3.0);
}

TEST(FailureInjectorTest, InvalidArguments) {
  Rig rig;
  FailureInjector inj(rig.cluster, Rng(1));
  EXPECT_THROW(inj.plan_uniform(1, sim::TimePoint{} + sim::seconds(5),
                                sim::TimePoint{} + sim::seconds(5)),
               std::invalid_argument);
  inj.add_group({"g", 1});
  EXPECT_THROW(inj.plan_mtbf(sim::Duration{0}, sim::TimePoint{},
                             sim::TimePoint{} + sim::seconds(1)),
               std::invalid_argument);
}

// Property sweep across seeds: every uniform plan stays inside its window,
// comes out sorted, and only names registered victim groups — regardless
// of the seed or the requested count.
TEST(FailureInjectorPropertyTest, UniformPlanInvariantsHoldAcrossSeeds) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    Rig rig;
    FailureInjector inj(rig.cluster, Rng(seed));
    inj.add_group({"sim", 256});
    inj.add_group({"analytic", 64});
    inj.add_group({"viz", 16});
    const auto start = sim::TimePoint{} + sim::seconds(2);
    const auto end = sim::TimePoint{} + sim::seconds(42);
    const int count = static_cast<int>(seed % 13);
    auto plan = inj.plan_uniform(count, start, end);
    ASSERT_EQ(plan.size(), static_cast<std::size_t>(count)) << seed;
    for (std::size_t i = 0; i < plan.size(); ++i) {
      EXPECT_GE(plan[i].at.ns, start.ns) << seed;
      EXPECT_LT(plan[i].at.ns, end.ns) << seed;
      if (i > 0) {
        EXPECT_GE(plan[i].at.ns, plan[i - 1].at.ns) << seed;
      }
      EXPECT_GE(plan[i].group, 0) << seed;
      EXPECT_LE(plan[i].group, 2) << seed;
    }
  }
}

TEST(FailureInjectorPropertyTest, MtbfPlanInvariantsHoldAcrossSeeds) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    Rig rig;
    FailureInjector inj(rig.cluster, Rng(seed));
    inj.add_group({"sim", 256});
    inj.add_group({"analytic", 64});
    const auto start = sim::TimePoint{} + sim::seconds(5);
    const auto end = sim::TimePoint{} + sim::seconds(405);
    auto plan = inj.plan_mtbf(sim::seconds(20), start, end);
    for (std::size_t i = 0; i < plan.size(); ++i) {
      // Exponential arrivals are strictly ordered (zero increments have
      // probability zero) and never land on or past the window end.
      EXPECT_GT(plan[i].at.ns, start.ns) << seed;
      EXPECT_LT(plan[i].at.ns, end.ns) << seed;
      if (i > 0) {
        EXPECT_GT(plan[i].at.ns, plan[i - 1].at.ns) << seed;
      }
      EXPECT_GE(plan[i].group, 0) << seed;
      EXPECT_LE(plan[i].group, 1) << seed;
    }
  }
}

// Victim selection converges to the core-count weights in both planning
// modes — the Table II ratio (256:64 cores → 4:1 failures) emerges from
// the sampler rather than being hard-coded anywhere.
TEST(FailureInjectorPropertyTest, VictimWeightsConvergeInBothModes) {
  Rig rig;
  FailureInjector inj(rig.cluster, Rng(17));
  inj.add_group({"sim", 256});
  inj.add_group({"analytic", 64});
  int uniform_sim = 0, uniform_total = 0;
  auto uplan = inj.plan_uniform(4000, sim::TimePoint{},
                                sim::TimePoint{} + sim::seconds(1));
  for (const auto& f : uplan) {
    uniform_sim += (f.group == 0);
    ++uniform_total;
  }
  EXPECT_NEAR(static_cast<double>(uniform_sim) / uniform_total, 0.8, 0.03);

  FailureInjector minj(rig.cluster, Rng(23));
  minj.add_group({"sim", 256});
  minj.add_group({"analytic", 64});
  int mtbf_sim = 0, mtbf_total = 0;
  auto mplan = minj.plan_mtbf(sim::seconds(1), sim::TimePoint{},
                              sim::TimePoint{} + sim::seconds(4000));
  for (const auto& f : mplan) {
    mtbf_sim += (f.group == 0);
    ++mtbf_total;
  }
  ASSERT_GT(mtbf_total, 2000);
  EXPECT_NEAR(static_cast<double>(mtbf_sim) / mtbf_total, 0.8, 0.03);
}

// Mean inter-arrival converges to the configured MTBF (Table III's rows
// depend on this calibration).
TEST(FailureInjectorPropertyTest, MtbfMeanInterArrivalConverges) {
  Rig rig;
  FailureInjector inj(rig.cluster, Rng(29));
  inj.add_group({"g", 1});
  auto plan = inj.plan_mtbf(sim::seconds(50), sim::TimePoint{},
                            sim::TimePoint{} + sim::seconds(200000));
  ASSERT_GT(plan.size(), 3000u);
  const double span = plan.back().at.seconds() - plan.front().at.seconds();
  const double mean = span / static_cast<double>(plan.size() - 1);
  EXPECT_NEAR(mean, 50.0, 3.0);
}

TEST(PfsTest, WriteTimeMatchesBandwidth) {
  Rig rig;
  Pfs pfs(rig.eng, Pfs::Params{.write_bw = 60e9,
                               .read_bw = 80e9,
                               .open_latency = sim::milliseconds(5)});
  sim::TimePoint done{};
  sim::spawn(rig.eng, [&]() -> sim::Task<void> {
    sim::Ctx ctx{&rig.eng, nullptr};
    co_await pfs.write(ctx, 60'000'000'000ull);  // 60 GB at 60 GB/s = 1 s
    done = rig.eng.now();
  });
  rig.eng.run();
  EXPECT_EQ(done.ns, (sim::seconds(1) + sim::milliseconds(5)).ns);
  EXPECT_EQ(pfs.bytes_written(), 60'000'000'000ull);
}

TEST(PfsTest, ConcurrentWritersSerialize) {
  // Aggregate-bandwidth model: N concurrent checkpointers take N times as
  // long as one — the coordinated-checkpoint contention effect.
  Rig rig;
  Pfs pfs(rig.eng, Pfs::Params{.write_bw = 10e9,
                               .read_bw = 10e9,
                               .open_latency = sim::Duration{0}});
  std::vector<double> finish;
  auto writer = [&]() -> sim::Task<void> {
    sim::Ctx ctx{&rig.eng, nullptr};
    co_await pfs.write(ctx, 10'000'000'000ull);  // 1 s each
    finish.push_back(rig.eng.now().seconds());
  };
  for (int i = 0; i < 4; ++i) sim::spawn(rig.eng, writer());
  rig.eng.run();
  ASSERT_EQ(finish.size(), 4u);
  EXPECT_NEAR(finish.back(), 4.0, 1e-9);
}

TEST(PfsTest, ReadsUseReadBandwidth) {
  Rig rig;
  Pfs pfs(rig.eng, Pfs::Params{.write_bw = 10e9,
                               .read_bw = 20e9,
                               .open_latency = sim::Duration{0}});
  sim::TimePoint done{};
  sim::spawn(rig.eng, [&]() -> sim::Task<void> {
    sim::Ctx ctx{&rig.eng, nullptr};
    co_await pfs.read(ctx, 20'000'000'000ull);  // 1 s at 20 GB/s
    done = rig.eng.now();
  });
  rig.eng.run();
  EXPECT_EQ(done.ns, sim::seconds(1).ns);
  EXPECT_EQ(pfs.bytes_read(), 20'000'000'000ull);
}

}  // namespace
}  // namespace dstage::cluster
