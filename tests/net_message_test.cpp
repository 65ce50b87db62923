// The typed wire vocabulary and its codec (net/message.hpp) plus the
// unified RPC transport (net/rpc.hpp). The wire_size constants are
// load-bearing — the Table II golden-trace digests are recorded against
// them — so every message and response size is locked down here.
#include "net/message.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "net/rpc.hpp"
#include "sim/spawn.hpp"

namespace dstage::net {
namespace {

Chunk chunk_of(std::uint64_t nominal) {
  Chunk c;
  c.var = "f";
  c.version = 3;
  c.region = Box::from_dims(4, 4, 4);
  c.nominal_bytes = nominal;
  return c;
}

TEST(MessageCodecTest, RequestSizesLockedDown) {
  PutRequest put;
  put.chunk = chunk_of(1000);
  EXPECT_EQ(wire_size(put), 1128u);  // object header + payload

  EXPECT_EQ(wire_size(GetRequest{}), 128u);
  EXPECT_EQ(wire_size(CheckpointEvent{}), 64u);
  EXPECT_EQ(wire_size(RecoveryEvent{}), 64u);
  EXPECT_EQ(wire_size(RollbackRequest{}), 64u);
  EXPECT_EQ(wire_size(FragmentPrune{}), 64u);
  EXPECT_EQ(wire_size(QueryRequest{}), 64u);

  FragmentPut frag;
  frag.nominal_bytes = 5000;
  EXPECT_EQ(wire_size(frag), 5000u);  // fragment payload rides raw

  // Elastic-membership control verbs are descriptor-sized; the view
  // payload pays 4 bytes per member.
  EXPECT_EQ(wire_size(JoinGroup{}), 64u);
  EXPECT_EQ(wire_size(RetireServer{}), 64u);
  EXPECT_EQ(wire_size(MembershipQuery{}), 64u);
  MembershipUpdate update;
  update.active = {0, 1, 2};
  EXPECT_EQ(wire_size(update), 64u + 4u * 3u);
  EXPECT_EQ(wire_size(FragmentFetch{}), 128u);
  ResilverPut resilver;
  resilver.chunk = chunk_of(1000);
  EXPECT_EQ(wire_size(resilver), 1128u);  // same envelope as a put
}

TEST(MessageCodecTest, ResponseSizesLockedDown) {
  EXPECT_EQ(wire_size(PutResponse{}), 64u);
  EXPECT_EQ(wire_size(CheckpointAck{}), 64u);
  EXPECT_EQ(wire_size(RecoveryAck{}), 64u);
  EXPECT_EQ(wire_size(RollbackAck{}), 64u);

  GetResponse get;
  EXPECT_EQ(wire_size(get), 128u);
  get.pieces.push_back(chunk_of(700));
  get.pieces.push_back(chunk_of(300));
  EXPECT_EQ(wire_size(get), 1128u);

  QueryResponse query;
  query.store_versions = {1, 2, 3};
  query.logged_versions = {2, 3};
  EXPECT_EQ(wire_size(query), 64u + 4u * 5u);

  FragmentPut frag;
  frag.nominal_bytes = 5000;

  EXPECT_EQ(wire_size(GroupChangeAck{}), 64u);
  EXPECT_EQ(wire_size(ResilverAck{}), 64u);
  MembershipInfo info;
  info.active = {0, 1};
  EXPECT_EQ(wire_size(info), 64u + 4u * 2u);
  FragmentFetchResponse fetch;
  EXPECT_EQ(wire_size(fetch), 128u);
  fetch.fragments.push_back(frag);
  EXPECT_EQ(wire_size(fetch), 128u + 5000u);
}

TEST(MessageCodecTest, SerializedSizeDispatchesOverEveryAlternative) {
  static_assert(std::variant_size_v<Message> == 20);
  FragmentPut frag;
  frag.nominal_bytes = 777;
  EXPECT_EQ(serialized_size(Message{std::move(frag)}), 777u);
  EXPECT_EQ(serialized_size(Message{QueryRequest{}}), 64u);
  PutRequest put;
  put.chunk = chunk_of(1000);
  EXPECT_EQ(serialized_size(Message{std::move(put)}), 1128u);
}

TEST(MessageCodecTest, MessageNamesMatchSpanVocabulary) {
  // These strings are the observability span names; the golden obs
  // expectations depend on them.
  EXPECT_STREQ(message_name(PutRequest{}), "put");
  EXPECT_STREQ(message_name(GetRequest{}), "get");
  EXPECT_STREQ(message_name(CheckpointEvent{}), "checkpoint");
  EXPECT_STREQ(message_name(RecoveryEvent{}), "recovery");
  EXPECT_STREQ(message_name(RollbackRequest{}), "rollback");
  EXPECT_STREQ(message_name(FragmentPut{}), "fragment_put");
  EXPECT_STREQ(message_name(FragmentPrune{}), "fragment_prune");
  EXPECT_STREQ(message_name(QueryRequest{}), "query");
  EXPECT_STREQ(message_name(SpillPut{}), "spill_put");
  EXPECT_STREQ(message_name(SpillFetch{}), "spill_fetch");
  EXPECT_STREQ(message_name(SpillPrune{}), "spill_prune");
  EXPECT_STREQ(message_name(JoinGroup{}), "join_group");
  EXPECT_STREQ(message_name(RetireServer{}), "retire_server");
  EXPECT_STREQ(message_name(MembershipUpdate{}), "membership_update");
  EXPECT_STREQ(message_name(MembershipQuery{}), "membership_query");
  EXPECT_STREQ(message_name(FragmentFetch{}), "fragment_fetch");
  EXPECT_STREQ(message_name(ResilverPut{}), "resilver_put");
  EXPECT_STREQ(message_name(CkptStoreLocal{}), "ckpt_store_local");
  EXPECT_STREQ(message_name(CkptXorShard{}), "ckpt_xor_shard");
  EXPECT_STREQ(message_name(CkptDrainAck{}), "ckpt_drain_ack");
  EXPECT_STREQ(message_name(Message{QueryRequest{}}), "query");
}

// ---------------------------------------------------------------------------
// Rpc transport semantics.
// ---------------------------------------------------------------------------

struct RpcRig {
  sim::Engine eng;
  Fabric fabric{eng, {}};
  NodeId n0 = fabric.add_node();
  NodeId n1 = fabric.add_node();
  EndpointId client_ep = fabric.add_endpoint(n0);
  EndpointId server_ep = fabric.add_endpoint(n1);
  Rpc client{fabric, client_ep};
  Rpc server{fabric, server_ep};
};

TEST(RpcTest, CallRoundTripDeliversTypedResponse) {
  RpcRig rig;
  std::size_t got_versions = 0;
  sim::spawn(rig.eng, [&]() -> sim::Task<void> {
    sim::Ctx ctx{&rig.eng, nullptr};
    Packet pkt = co_await rig.fabric.endpoint(rig.server_ep).recv(nullptr);
    auto& req = std::get<QueryRequest>(pkt.payload);
    EXPECT_EQ(req.var, "f");
    EXPECT_EQ(req.reply_to, rig.client_ep);
    QueryResponse resp;
    resp.store_versions = {1, 2, 3};
    co_await rig.server.fulfill(ctx, req.reply_to, std::move(req.reply),
                                std::move(resp));
  });
  sim::spawn(rig.eng, [&]() -> sim::Task<void> {
    sim::Ctx ctx{&rig.eng, nullptr};
    QueryRequest req;
    req.var = "f";
    auto resp = co_await rig.client.call(ctx, rig.server_ep, std::move(req));
    got_versions = resp.store_versions.size();
  });
  rig.eng.run();
  EXPECT_EQ(got_versions, 3u);
  EXPECT_EQ(rig.client.stats().calls, 1u);
  EXPECT_EQ(rig.client.stats().responses, 1u);
  EXPECT_EQ(rig.client.stats().retries, 0u);
}

TEST(RpcTest, RetryResendsAfterTimeoutAndSucceeds) {
  RpcRig rig;
  bool answered = false;
  sim::spawn(rig.eng, [&]() -> sim::Task<void> {
    sim::Ctx ctx{&rig.eng, nullptr};
    // Drop the first attempt on the floor; answer the second.
    (void)co_await rig.fabric.endpoint(rig.server_ep).recv(nullptr);
    Packet pkt = co_await rig.fabric.endpoint(rig.server_ep).recv(nullptr);
    auto& req = std::get<QueryRequest>(pkt.payload);
    co_await rig.server.fulfill(ctx, req.reply_to, std::move(req.reply),
                                QueryResponse{});
    answered = true;
  });
  sim::spawn(rig.eng, [&]() -> sim::Task<void> {
    sim::Ctx ctx{&rig.eng, nullptr};
    QueryRequest req;
    req.var = "f";
    RetryPolicy policy;
    policy.timeout = sim::milliseconds(1);
    policy.max_attempts = 3;
    (void)co_await rig.client.call(ctx, rig.server_ep, std::move(req),
                                   policy);
  });
  rig.eng.run();
  EXPECT_TRUE(answered);
  EXPECT_EQ(rig.client.stats().retries, 1u);
  EXPECT_EQ(rig.client.stats().responses, 1u);
  EXPECT_EQ(rig.client.stats().exhausted, 0u);
}

TEST(RpcTest, LateAnswersToLostAttemptsCannotSatisfyTheRetry) {
  // Two attempts time out unanswered; the server then answers all three.
  // Only the last attempt's answer completes the call: each re-send waits
  // on a fresh slot, and the lost attempts' slots stay valid for the
  // server that answers them late.
  RpcRig rig;
  sim::spawn(rig.eng, [&]() -> sim::Task<void> {
    sim::Ctx ctx{&rig.eng, nullptr};
    std::vector<QueryRequest> held;
    for (int i = 0; i < 3; ++i) {
      Packet pkt = co_await rig.fabric.endpoint(rig.server_ep).recv(nullptr);
      held.push_back(std::move(std::get<QueryRequest>(pkt.payload)));
    }
    for (std::size_t i = 0; i < held.size(); ++i) {
      QueryResponse resp;
      resp.store_versions = {static_cast<Version>(i + 1)};
      co_await rig.server.fulfill(ctx, held[i].reply_to,
                                  std::move(held[i].reply), std::move(resp));
    }
  });
  std::vector<Version> got;
  sim::spawn(rig.eng, [&]() -> sim::Task<void> {
    sim::Ctx ctx{&rig.eng, nullptr};
    QueryRequest req;
    req.var = "f";
    RetryPolicy policy;
    policy.timeout = sim::milliseconds(1);
    policy.max_attempts = 3;
    const QueryResponse resp =
        co_await rig.client.call(ctx, rig.server_ep, std::move(req), policy);
    got = resp.store_versions;
  });
  rig.eng.run();
  EXPECT_EQ(got, std::vector<Version>{3});
  EXPECT_EQ(rig.client.stats().retries, 2u);
  EXPECT_EQ(rig.client.stats().responses, 1u);
}

TEST(RpcTest, ExhaustedAttemptsThrowInsteadOfHanging) {
  RpcRig rig;  // nobody serves server_ep
  bool threw = false;
  sim::TimePoint gave_up{};
  sim::spawn(rig.eng, [&]() -> sim::Task<void> {
    sim::Ctx ctx{&rig.eng, nullptr};
    QueryRequest req;
    req.var = "f";
    RetryPolicy policy;
    policy.timeout = sim::milliseconds(1);
    policy.max_attempts = 3;
    try {
      (void)co_await rig.client.call(ctx, rig.server_ep, std::move(req),
                                     policy);
    } catch (const std::runtime_error&) {
      threw = true;
      gave_up = rig.eng.now();
    }
  });
  rig.eng.run();
  EXPECT_TRUE(threw);
  EXPECT_EQ(rig.client.stats().retries, 2u);
  EXPECT_EQ(rig.client.stats().exhausted, 1u);
  EXPECT_EQ(rig.client.stats().responses, 0u);
  // Three full per-attempt timeouts elapsed.
  EXPECT_GE(gave_up.ns, 3 * sim::milliseconds(1).ns);
}

TEST(RpcTest, BackoffDelaysResends) {
  RpcRig rig;  // nobody serves
  sim::TimePoint gave_up{};
  sim::spawn(rig.eng, [&]() -> sim::Task<void> {
    sim::Ctx ctx{&rig.eng, nullptr};
    QueryRequest req;
    req.var = "f";
    RetryPolicy policy;
    policy.timeout = sim::milliseconds(1);
    policy.max_attempts = 3;
    policy.backoff = sim::milliseconds(1);
    try {
      (void)co_await rig.client.call(ctx, rig.server_ep, std::move(req),
                                     policy);
    } catch (const std::runtime_error&) {
      gave_up = rig.eng.now();
    }
  });
  rig.eng.run();
  // timeout + backoff + timeout + 2*backoff + timeout.
  EXPECT_GE(gave_up.ns, 6 * sim::milliseconds(1).ns);
}

TEST(RpcTest, BackoffEscalationResetsPerErrorClass) {
  // Regression: the escalation shift used to ride the *cumulative*
  // per-class counters, so when timeouts and governor rejections
  // interleaved within one call, a fresh rejection after a timeout
  // inherited the previous rejection's escalation and jumped straight to
  // a doubled wait. The shift must follow the *consecutive* streak, each
  // class resetting the other.
  RpcRig rig;
  sim::spawn(rig.eng, [&]() -> sim::Task<void> {
    sim::Ctx ctx{&rig.eng, nullptr};
    // Script: reject, drop (let the client time out), reject, accept.
    for (int i = 0; i < 4; ++i) {
      Packet pkt = co_await rig.fabric.endpoint(rig.server_ep).recv(nullptr);
      auto& req = std::get<PutRequest>(pkt.payload);
      if (i == 1) continue;  // dropped on the floor
      PutResponse resp;
      resp.retry_later = i != 3;
      resp.applied = i == 3;
      co_await rig.server.fulfill(ctx, req.reply_to, std::move(req.reply),
                                  std::move(resp));
    }
  });
  bool applied = false;
  sim::TimePoint done{};
  sim::spawn(rig.eng, [&]() -> sim::Task<void> {
    sim::Ctx ctx{&rig.eng, nullptr};
    PutRequest req;
    req.app = 0;
    req.chunk.var = "f";
    req.chunk.nominal_bytes = 64;
    RetryPolicy policy;
    policy.timeout = sim::milliseconds(100);
    policy.backoff = sim::seconds(1);
    policy.max_attempts = 4;
    const PutResponse resp =
        co_await rig.client.call(ctx, rig.server_ep, std::move(req), policy);
    applied = resp.applied;
    done = rig.eng.now();
  });
  rig.eng.run();
  EXPECT_TRUE(applied);
  EXPECT_EQ(rig.client.stats().backpressure_waits, 2u);
  EXPECT_EQ(rig.client.stats().retries, 1u);
  EXPECT_EQ(rig.client.stats().responses, 1u);
  // reject (1 s) + timeout (0.1 s) + timeout backoff (1 s) + reject with
  // its streak RESET (1 s) ≈ 3.1 s. The pre-fix cumulative counter would
  // have shifted the second rejection to 2 s (total ≈ 4.1 s).
  EXPECT_GE(done.seconds(), 3.0);
  EXPECT_LT(done.seconds(), 3.6);
}

TEST(RpcTest, OneWaySendCountsAndDelivers) {
  RpcRig rig;
  bool got = false;
  sim::spawn(rig.eng, [&]() -> sim::Task<void> {
    Packet pkt = co_await rig.fabric.endpoint(rig.server_ep).recv(nullptr);
    got = std::holds_alternative<FragmentPrune>(pkt.payload);
  });
  sim::spawn(rig.eng, [&]() -> sim::Task<void> {
    sim::Ctx ctx{&rig.eng, nullptr};
    FragmentPrune prune;
    prune.owner = 0;
    prune.var = "f";
    co_await rig.client.send(ctx, rig.server_ep, Message{std::move(prune)});
  });
  rig.eng.run();
  EXPECT_TRUE(got);
  EXPECT_EQ(rig.client.stats().oneways, 1u);
  EXPECT_EQ(rig.client.stats().calls, 0u);
}

TEST(RpcTest, UnansweredCallTimesOutFromItsInjectionEnd) {
  // One attempt that nobody answers: the call fails when its timeout,
  // counted from the end of the request's injection, runs out. Cancelling
  // the timer that ended the wait is a no-op: a later item stays queued.
  RpcRig rig;
  QueryRequest req;
  req.var = "f";
  const sim::Duration inject = rig.fabric.injection_time(wire_size(req));
  std::string error;
  sim::TimePoint gave_up{};
  sim::spawn(rig.eng, [&]() -> sim::Task<void> {
    sim::Ctx ctx{&rig.eng, nullptr};
    RetryPolicy policy;
    policy.timeout = sim::seconds(1);
    policy.max_attempts = 1;
    try {
      (void)co_await rig.client.call(ctx, rig.server_ep, std::move(req),
                                     policy);
    } catch (const std::runtime_error& e) {
      error = e.what();
      gave_up = rig.eng.now();
    }
  });
  bool later = false;
  rig.eng.schedule_call(sim::seconds(3), [&] { later = true; });
  rig.eng.run_until(sim::TimePoint{} + sim::seconds(2));
  EXPECT_EQ(error, "rpc query timed out after retries");
  EXPECT_EQ(gave_up.ns, (inject + sim::seconds(1)).ns);
  EXPECT_FALSE(rig.eng.empty());
  rig.eng.run();
  EXPECT_TRUE(later);
  EXPECT_EQ(rig.client.stats().exhausted, 1u);
  EXPECT_EQ(rig.client.stats().retries, 0u);
}

TEST(RpcTest, KilledCallDisarmsItsReplyTimer) {
  // A call killed while it waits for its reply unwinds at the kill, and
  // its reply timer goes with it. The server dropped the request, so the
  // unwind frees the call's state: a timer left armed would fire on freed
  // memory (AddressSanitizer reports it).
  RpcRig rig;
  sim::spawn(rig.eng, [&]() -> sim::Task<void> {
    (void)co_await rig.fabric.endpoint(rig.server_ep).recv(nullptr);
  });
  sim::CancelToken tok;
  bool cancelled = false;
  sim::spawn(rig.eng, [&]() -> sim::Task<void> {
    sim::Ctx ctx{&rig.eng, &tok};
    QueryRequest req;
    req.var = "f";
    RetryPolicy policy;
    policy.timeout = sim::seconds(1);
    try {
      (void)co_await rig.client.call(ctx, rig.server_ep, std::move(req),
                                     policy);
    } catch (const sim::Cancelled&) {
      cancelled = true;
    }
  });
  rig.eng.schedule_call(sim::milliseconds(500), [&] { tok.cancel(); });
  bool later = false;
  rig.eng.schedule_call(sim::seconds(2), [&] { later = true; });
  rig.eng.run();
  EXPECT_TRUE(cancelled);
  EXPECT_TRUE(later);
  EXPECT_EQ(rig.eng.now().ns, sim::seconds(2).ns);
  // Two process starts, the injection, the delivery, the server's wake,
  // the kill, the call's unwind and the t=2 item: the timer never fired.
  EXPECT_EQ(rig.eng.processed(), 8u);
  EXPECT_EQ(rig.client.stats().responses, 0u);
}

/// Records when a reply slot is set.
struct ReplyClock final : Reply<GetResponse>::Waiter {
  explicit ReplyClock(sim::Engine& eng) : eng(&eng) {}
  void on_reply() override { at = eng->now().ns; }
  sim::Engine* eng;
  std::int64_t at = -1;
};

TEST(RpcTest, FulfillPaysNicBandwidthOnlyAboveTheControlPathCap) {
  // A response up to kControlPathBytes is a completion notification: the
  // fixed per-message overhead, then the wire, with no NIC bytes. A larger
  // one pays NIC bandwidth for its bytes like any bulk send.
  RpcRig rig;
  GetResponse small;
  GetResponse large;
  large.pieces.push_back(chunk_of(700));
  large.pieces.push_back(chunk_of(300));
  const std::uint64_t large_bytes = wire_size(large);
  ASSERT_LE(wire_size(small), kControlPathBytes);
  ASSERT_GT(large_bytes, kControlPathBytes);
  auto small_reply = std::make_shared<Reply<GetResponse>>();
  auto large_reply = std::make_shared<Reply<GetResponse>>();
  ReplyClock small_clock(rig.eng);
  ReplyClock large_clock(rig.eng);
  small_reply->wait(small_clock);
  large_reply->wait(large_clock);
  sim::spawn(rig.eng, [&]() -> sim::Task<void> {
    sim::Ctx ctx{&rig.eng, nullptr};
    co_await rig.server.fulfill(ctx, rig.client_ep, small_reply,
                                std::move(small));
  });
  sim::spawn(rig.eng, [&]() -> sim::Task<void> {
    sim::Ctx ctx{&rig.eng, nullptr};
    co_await rig.server.fulfill(ctx, rig.client_ep, large_reply,
                                std::move(large));
  });
  rig.eng.run();
  const sim::Duration latency = rig.fabric.params().latency;
  EXPECT_EQ(small_clock.at,
            (rig.fabric.params().per_message_overhead + latency).ns);
  EXPECT_EQ(large_clock.at,
            (rig.fabric.injection_time(large_bytes) + latency).ns);
  ASSERT_TRUE(large_reply->value().has_value());
  EXPECT_EQ(large_reply->value()->pieces.size(), 2u);
  EXPECT_EQ(rig.fabric.packets_sent(), 2u);
  EXPECT_EQ(rig.fabric.bytes_sent(), large_bytes);
}

// ---------------------------------------------------------------------------
// Rpc::call_all fan-out contract.
// ---------------------------------------------------------------------------

/// A put of `nominal` payload bytes for `var` (its response may carry a
/// RetryLater).
PutRequest put_of(std::string var, std::uint64_t nominal) {
  PutRequest req;
  req.app = 0;
  req.chunk.var = std::move(var);
  req.chunk.nominal_bytes = nominal;
  return req;
}

/// Serves `n` puts on `ep`, answering the first arrival of `bounce` with a
/// RetryLater, and records every arrival's var and time. (Coroutine
/// parameters stay trivially destructible: GCC 12 double-destroys prvalue
/// arguments bound to by-value coroutine parameters.)
sim::Task<void> serve_puts(Fabric& fabric, Rpc& server, EndpointId ep, int n,
                           const char* bounce,
                           std::vector<std::pair<std::string, std::int64_t>>*
                               arrivals) {
  sim::Ctx ctx{&fabric.engine(), nullptr};
  bool bounced = false;
  for (int i = 0; i < n; ++i) {
    Packet pkt = co_await fabric.endpoint(ep).recv(nullptr);
    auto& req = std::get<PutRequest>(pkt.payload);
    arrivals->emplace_back(req.chunk.var, fabric.engine().now().ns);
    PutResponse resp;
    if (req.chunk.var == bounce && !bounced) {
      bounced = true;
      resp.retry_later = true;
    } else {
      resp.applied = true;
    }
    co_await server.fulfill(ctx, req.reply_to, std::move(req.reply), resp);
  }
}

sim::Task<void> one_put(Rpc& client, sim::Ctx ctx, EndpointId dst,
                        const char* var, std::int64_t* done_at) {
  PutRequest req = put_of(var, 1000);
  const PutResponse resp = co_await client.call(ctx, dst, std::move(req));
  EXPECT_TRUE(resp.applied);
  *done_at = ctx.now().ns;
}

TEST(RpcFanOutTest, RetryLaterResendsOnlyThatCallAsSeparateCallsWould) {
  const char* const vars[] = {"a", "b", "c"};
  // The fan-out: one call_all of three puts; "b" is bounced once.
  std::vector<std::pair<std::string, std::int64_t>> fan_arrivals;
  std::int64_t fan_done = -1;
  RpcStats fan_stats;
  {
    RpcRig rig;
    sim::spawn(rig.eng, serve_puts(rig.fabric, rig.server, rig.server_ep, 4,
                                   "b", &fan_arrivals));
    sim::spawn(rig.eng, [&]() -> sim::Task<void> {
      sim::Ctx ctx{&rig.eng, nullptr};
      std::vector<Addressed<PutRequest>> calls;
      for (const char* v : vars) {
        calls.push_back({rig.server_ep, put_of(v, 1000)});
      }
      auto replies = co_await rig.client.call_all(ctx, std::move(calls));
      EXPECT_TRUE(replies.failures().empty());
      for (std::size_t i = 0; i < replies.size(); ++i) {
        const PutResponse* resp = replies.response(i);
        EXPECT_TRUE(resp != nullptr && resp->applied);
      }
      fan_done = rig.eng.now().ns;
    });
    rig.eng.run();
    fan_stats = rig.client.stats();
  }
  // The same three puts as three separate processes, one call() each.
  std::vector<std::pair<std::string, std::int64_t>> solo_arrivals;
  std::int64_t solo_done[3] = {-1, -1, -1};
  {
    RpcRig rig;
    sim::spawn(rig.eng, serve_puts(rig.fabric, rig.server, rig.server_ep, 4,
                                   "b", &solo_arrivals));
    for (std::size_t i = 0; i < 3; ++i) {
      sim::spawn(rig.eng, one_put(rig.client, sim::Ctx{&rig.eng, nullptr},
                                  rig.server_ep, vars[i], &solo_done[i]));
    }
    rig.eng.run();
  }
  // Only "b" was sent twice, after its backoff.
  ASSERT_EQ(fan_arrivals.size(), 4u);
  EXPECT_EQ(fan_arrivals.back().first, "b");
  EXPECT_GE(fan_arrivals.back().second, kBackpressureBackoff.ns);
  EXPECT_EQ(fan_stats.calls, 3u);
  EXPECT_EQ(fan_stats.responses, 3u);
  EXPECT_EQ(fan_stats.backpressure_waits, 1u);
  // Every arrival lands at the same virtual time as with separate calls,
  // and the fan-out ends when the last of them would.
  EXPECT_EQ(fan_arrivals, solo_arrivals);
  EXPECT_EQ(fan_done, *std::max_element(solo_done, solo_done + 3));
}

TEST(RpcFanOutTest, TimeoutResendsALostReplyCountedFromInjectionEnd) {
  RpcRig rig;
  std::vector<std::pair<std::string, std::int64_t>> arrivals;
  sim::spawn(rig.eng, [&]() -> sim::Task<void> {
    sim::Ctx ctx{&rig.eng, nullptr};
    // Drops the first "a"; answers everything else.
    for (int i = 0; i < 3; ++i) {
      Packet pkt = co_await rig.fabric.endpoint(rig.server_ep).recv(nullptr);
      auto& req = std::get<QueryRequest>(pkt.payload);
      arrivals.emplace_back(req.var, rig.eng.now().ns);
      if (i == 0) continue;
      co_await rig.server.fulfill(ctx, req.reply_to, std::move(req.reply),
                                  QueryResponse{});
    }
  });
  const sim::Duration timeout = sim::milliseconds(1);
  std::size_t answered = 0;
  sim::spawn(rig.eng, [&]() -> sim::Task<void> {
    sim::Ctx ctx{&rig.eng, nullptr};
    std::vector<Addressed<QueryRequest>> calls;
    for (const char* v : {"a", "b"}) {
      QueryRequest req;
      req.var = v;
      calls.push_back({rig.server_ep, std::move(req)});
    }
    RetryPolicy policy;
    policy.timeout = timeout;
    auto replies = co_await rig.client.call_all(ctx, std::move(calls), policy);
    for (std::size_t i = 0; i < replies.size(); ++i) {
      answered += replies.response(i) != nullptr ? 1 : 0;
    }
  });
  rig.eng.run();
  EXPECT_EQ(answered, 2u);
  EXPECT_EQ(rig.client.stats().retries, 1u);
  // "a" injects first and its timeout runs from its injection end; the
  // re-send then injects on the idle NIC and crosses the wire.
  const sim::Duration inject = rig.fabric.injection_time(64);
  const sim::Duration latency = rig.fabric.params().latency;
  ASSERT_EQ(arrivals.size(), 3u);
  EXPECT_EQ(arrivals[0], (std::pair<std::string, std::int64_t>{
                             "a", (inject + latency).ns}));
  EXPECT_EQ(arrivals[2].first, "a");
  EXPECT_EQ(arrivals[2].second, (inject + timeout + inject + latency).ns);
}

TEST(RpcFanOutTest, PeerCheckErrorFailsOnlyItsCall) {
  RpcRig rig;
  const EndpointId down = rig.fabric.add_endpoint(rig.n1);
  rig.client.set_peer_check([down](EndpointId dst, const Message& request) {
    EXPECT_TRUE(std::holds_alternative<QueryRequest>(request));
    if (dst == down) throw std::runtime_error("peer down");
  });
  int served = 0;
  sim::spawn(rig.eng, [&]() -> sim::Task<void> {
    sim::Ctx ctx{&rig.eng, nullptr};
    for (int i = 0; i < 2; ++i) {
      Packet pkt = co_await rig.fabric.endpoint(rig.server_ep).recv(nullptr);
      auto& req = std::get<QueryRequest>(pkt.payload);
      ++served;
      co_await rig.server.fulfill(ctx, req.reply_to, std::move(req.reply),
                                  QueryResponse{});
    }
  });
  std::vector<std::size_t> failed;
  std::string error;
  std::size_t answered = 0;
  sim::spawn(rig.eng, [&]() -> sim::Task<void> {
    sim::Ctx ctx{&rig.eng, nullptr};
    std::vector<Addressed<QueryRequest>> calls;
    for (EndpointId dst : {rig.server_ep, down, rig.server_ep}) {
      calls.push_back({dst, QueryRequest{}});
    }
    auto replies = co_await rig.client.call_all(ctx, std::move(calls));
    for (const auto& [i, err] : replies.failures()) {
      failed.push_back(i);
      try {
        std::rethrow_exception(err);
      } catch (const std::runtime_error& e) {
        error = e.what();
      }
    }
    answered = (replies.response(0) != nullptr ? 1u : 0u) +
               (replies.response(2) != nullptr ? 1u : 0u);
  });
  rig.eng.run();
  EXPECT_EQ(failed, std::vector<std::size_t>{1});
  EXPECT_EQ(error, "peer down");
  EXPECT_EQ(answered, 2u);
  EXPECT_EQ(served, 2);
  // The failed call never started.
  EXPECT_EQ(rig.client.stats().calls, 2u);
  EXPECT_EQ(rig.client.stats().responses, 2u);
}

TEST(RpcFanOutTest, KilledFanOutDeliversNothingQueuedAndDisarmsItsTimers) {
  // Four 1-second puts queue on the client's NIC. The client is killed
  // half-way through the second one's injection: the first was delivered
  // (and is never answered), the second must free the NIC at the kill
  // instant, the last two must leave the NIC queue, and no reply timeout
  // may stay armed. A bystander on the same node queued behind them gets
  // the NIC at the kill.
  RpcRig rig;
  const EndpointId bystander = rig.fabric.add_endpoint(rig.n0);
  const std::uint64_t nominal = 8'000'000'000ull - 128;  // 1 s at 8 GB/s
  const sim::Duration inject =
      rig.fabric.injection_time(wire_size(put_of("x", nominal)));
  sim::CancelToken client_tok;
  sim::CancelToken server_tok;
  std::vector<std::string> delivered;
  sim::spawn(rig.eng, [&]() -> sim::Task<void> {
    for (;;) {
      Packet pkt =
          co_await rig.fabric.endpoint(rig.server_ep).recv(&server_tok);
      if (auto* put = std::get_if<PutRequest>(&pkt.payload)) {
        delivered.push_back(put->chunk.var);
      } else {
        delivered.push_back("bystander");
      }
    }
  });
  bool cancelled = false;
  sim::spawn(rig.eng, [&]() -> sim::Task<void> {
    sim::Ctx ctx{&rig.eng, &client_tok};
    std::vector<Addressed<PutRequest>> calls;
    for (const char* v : {"p0", "p1", "p2", "p3"}) {
      calls.push_back({rig.server_ep, put_of(v, nominal)});
    }
    RetryPolicy policy;
    policy.timeout = sim::seconds(10);
    try {
      (void)co_await rig.client.call_all(ctx, std::move(calls), policy);
    } catch (const sim::Cancelled&) {
      cancelled = true;
    }
  });
  // The bystander queues behind all four puts.
  sim::spawn(rig.eng, [&]() -> sim::Task<void> {
    sim::Ctx ctx{&rig.eng, nullptr};
    co_await ctx.delay(sim::milliseconds(1));
    FragmentPrune prune;
    prune.var = "bystander";
    Message msg{std::move(prune)};
    co_await rig.fabric.send(ctx, bystander, rig.server_ep, std::move(msg));
  });
  const sim::Duration kill_at = inject + sim::Duration{inject.ns / 2};
  rig.eng.schedule_call(kill_at, [&] { client_tok.cancel(); });
  rig.eng.run();
  EXPECT_TRUE(cancelled);
  EXPECT_EQ(delivered, (std::vector<std::string>{"p0", "bystander"}));
  // The bystander injected from the kill instant on; nothing later ran,
  // so p0's 10 s reply timeout was disarmed.
  const sim::Duration bystander_inject = rig.fabric.injection_time(64);
  EXPECT_EQ(rig.eng.now().ns,
            (kill_at + bystander_inject + rig.fabric.params().latency).ns);
  EXPECT_EQ(rig.client.stats().calls, 4u);
  EXPECT_EQ(rig.client.stats().responses, 0u);
  // Unwind the server loop so its frame (and p0's reply slot) is freed.
  server_tok.cancel();
  rig.eng.run();
}

}  // namespace
}  // namespace dstage::net
