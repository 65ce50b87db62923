// The typed wire vocabulary and its codec (net/message.hpp) plus the
// unified RPC transport (net/rpc.hpp). The wire_size constants are
// load-bearing — the Table II golden-trace digests are recorded against
// them — so every message and response size is locked down here.
#include "net/message.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <variant>

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
  EXPECT_EQ(wire_size(RecoveryPull{}), 64u);
  EXPECT_EQ(wire_size(QueryRequest{}), 64u);
  EXPECT_EQ(wire_size(QueueBackup{}), 96u);

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

  RecoveryPullResponse pull;
  EXPECT_EQ(wire_size(pull), 128u);
  FragmentPut frag;
  frag.nominal_bytes = 5000;
  pull.fragments.push_back(frag);
  pull.events.emplace_back();
  EXPECT_EQ(wire_size(pull), 128u + 5000u + 96u);

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
  static_assert(std::variant_size_v<Message> == 22);
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
  EXPECT_STREQ(message_name(QueueBackup{}), "queue_backup");
  EXPECT_STREQ(message_name(RecoveryPull{}), "recovery_pull");
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

}  // namespace
}  // namespace dstage::net
