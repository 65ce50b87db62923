#include "net/fabric.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/spawn.hpp"

namespace dstage::net {
namespace {

struct Rig {
  sim::Engine eng;
  Fabric fabric;
  NodeId n0, n1;
  EndpointId a, b;

  explicit Rig(Fabric::Params p = {})
      : fabric(eng, p),
        n0(fabric.add_node()),
        n1(fabric.add_node()),
        a(fabric.add_endpoint(n0)),
        b(fabric.add_endpoint(n1)) {}
};

/// Payload whose codec size is exactly `nominal` bytes (a FragmentPut's
/// wire footprint is its nominal payload share).
Message sized_payload(std::uint64_t nominal, std::string var = "f") {
  FragmentPut frag;
  frag.owner = 0;
  frag.var = std::move(var);
  frag.nominal_bytes = nominal;
  return Message{std::move(frag)};
}

TEST(FabricTest, InjectionTimeModel) {
  Rig rig;
  const auto& p = rig.fabric.params();
  const auto t = rig.fabric.injection_time(8'000'000'000ull);  // 8 GB
  // 8 GB at 8 GB/s = 1 s plus the per-message overhead.
  EXPECT_EQ(t.ns, sim::seconds(1).ns + p.per_message_overhead.ns);
}

TEST(FabricTest, CrossNodeDeliveryPaysInjectionAndLatency) {
  Rig rig;
  sim::TimePoint recv_at{};
  std::string got;
  std::uint64_t packet_bytes = 0;
  sim::spawn(rig.eng, [&]() -> sim::Task<void> {
    Packet pkt = co_await rig.fabric.endpoint(rig.b).recv(nullptr);
    got = std::get<FragmentPut>(pkt.payload).var;
    packet_bytes = pkt.bytes;
    recv_at = rig.eng.now();
  });
  sim::spawn(rig.eng, [&]() -> sim::Task<void> {
    sim::Ctx ctx{&rig.eng, nullptr};
    co_await rig.fabric.send(ctx, rig.a, rig.b,
                             sized_payload(8'000'000'000ull, "hello"));
  });
  rig.eng.run();
  EXPECT_EQ(got, "hello");
  // The envelope records the codec's size — callers never supply one.
  EXPECT_EQ(packet_bytes, 8'000'000'000ull);
  const auto expect = rig.fabric.injection_time(8'000'000'000ull) +
                      rig.fabric.params().latency;
  EXPECT_EQ(recv_at.ns, expect.ns);
}

TEST(FabricTest, IntraNodeSkipsNicAndLatency) {
  Rig rig;
  EndpointId a2 = rig.fabric.add_endpoint(rig.n0);
  sim::TimePoint recv_at{.ns = -1};
  sim::spawn(rig.eng, [&]() -> sim::Task<void> {
    (void)co_await rig.fabric.endpoint(a2).recv(nullptr);
    recv_at = rig.eng.now();
  });
  sim::spawn(rig.eng, [&]() -> sim::Task<void> {
    sim::Ctx ctx{&rig.eng, nullptr};
    co_await rig.fabric.send(ctx, rig.a, a2, sized_payload(1 << 20));
  });
  rig.eng.run();
  EXPECT_EQ(recv_at.ns, 0);  // same virtual instant
}

sim::Task<void> send_sized(Rig& rig, sim::Ctx ctx, std::uint64_t bytes) {
  Message payload = sized_payload(bytes);
  co_await rig.fabric.send(ctx, rig.a, rig.b, std::move(payload));
}

TEST(FabricTest, NicContentionSerializesSenders) {
  Rig rig;
  int received = 0;
  sim::TimePoint last{};
  sim::spawn(rig.eng, [&]() -> sim::Task<void> {
    for (int i = 0; i < 3; ++i) {
      (void)co_await rig.fabric.endpoint(rig.b).recv(nullptr);
      ++received;
      last = rig.eng.now();
    }
  });
  sim::spawn(rig.eng, [&]() -> sim::Task<void> {
    sim::Ctx ctx{&rig.eng, nullptr};
    std::vector<sim::Task<void>> sends;
    for (int i = 0; i < 3; ++i) {
      sends.push_back(send_sized(rig, ctx, 8'000'000'000ull));
    }
    co_await sim::when_all(ctx, std::move(sends));
  });
  rig.eng.run();
  EXPECT_EQ(received, 3);
  // Three 1-second injections share one NIC: ~3 s total despite the
  // concurrent sends.
  EXPECT_GE(last.seconds(), 3.0);
  EXPECT_LT(last.seconds(), 3.1);
}

TEST(FabricTest, StatisticsAccumulateCodecBytes) {
  Rig rig;
  sim::spawn(rig.eng, [&]() -> sim::Task<void> {
    sim::Ctx ctx{&rig.eng, nullptr};
    co_await rig.fabric.send(ctx, rig.a, rig.b, sized_payload(100));
    co_await rig.fabric.send(ctx, rig.a, rig.b, sized_payload(200));
  });
  rig.eng.run();
  EXPECT_EQ(rig.fabric.packets_sent(), 2u);
  EXPECT_EQ(rig.fabric.bytes_sent(), 300u);
}

TEST(FabricTest, SenderKilledAfterInjectionStillDelivers) {
  // Once the bytes are on the wire, delivery completes even if the sender
  // process dies — exactly like RDMA.
  Rig rig;
  sim::CancelToken tok;
  bool delivered = false;
  sim::spawn(rig.eng, [&]() -> sim::Task<void> {
    (void)co_await rig.fabric.endpoint(rig.b).recv(nullptr);
    delivered = true;
  });
  sim::spawn(rig.eng, [&]() -> sim::Task<void> {
    sim::Ctx ctx{&rig.eng, &tok};
    co_await rig.fabric.send(ctx, rig.a, rig.b, sized_payload(64));
    co_await ctx.delay(sim::seconds(100));  // killed here
  });
  rig.eng.schedule_call(sim::microseconds(10), [&] { tok.cancel(); });
  rig.eng.run();
  EXPECT_TRUE(delivered);
}

TEST(FabricTest, InvalidEndpointsRejected) {
  Rig rig;
  EXPECT_THROW((void)rig.fabric.endpoint(99), std::out_of_range);
  EXPECT_THROW(rig.fabric.add_endpoint(42), std::out_of_range);
  EXPECT_THROW(Fabric(rig.eng, Fabric::Params{.injection_bw = 0}),
               std::invalid_argument);
}

}  // namespace
}  // namespace dstage::net
