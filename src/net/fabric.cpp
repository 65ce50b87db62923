#include "net/fabric.hpp"

#include <stdexcept>
#include <utility>

namespace dstage::net {

Fabric::Fabric(sim::Engine& eng, Params params)
    : eng_(&eng), params_(params) {
  if (params_.injection_bw <= 0)
    throw std::invalid_argument("injection bandwidth must be positive");
}

NodeId Fabric::add_node() {
  nics_.push_back(std::make_unique<sim::Resource>(*eng_, 1));
  node_bw_.push_back(params_.injection_bw);
  return static_cast<NodeId>(nics_.size() - 1);
}

void Fabric::set_node_injection_bw(NodeId node, double bytes_per_sec) {
  if (node < 0 || node >= node_count()) throw std::out_of_range("unknown node");
  if (bytes_per_sec <= 0)
    throw std::invalid_argument("injection bandwidth must be positive");
  node_bw_[static_cast<std::size_t>(node)] = bytes_per_sec;
}

double Fabric::node_injection_bw(NodeId node) const {
  if (node < 0 || node >= node_count()) throw std::out_of_range("unknown node");
  return node_bw_[static_cast<std::size_t>(node)];
}

EndpointId Fabric::add_endpoint(NodeId node) {
  if (node < 0 || node >= node_count())
    throw std::out_of_range("unknown node");
  const auto id = static_cast<EndpointId>(endpoints_.size());
  endpoints_.push_back(std::make_unique<Endpoint>(*eng_, id, node));
  return id;
}

Endpoint& Fabric::endpoint(EndpointId id) {
  if (id < 0 || static_cast<std::size_t>(id) >= endpoints_.size())
    throw std::out_of_range("unknown endpoint");
  return *endpoints_[static_cast<std::size_t>(id)];
}

sim::Duration Fabric::injection_time(std::uint64_t bytes) const {
  return params_.per_message_overhead +
         sim::from_seconds(static_cast<double>(bytes) / params_.injection_bw);
}

sim::Duration Fabric::injection_time(std::uint64_t bytes, NodeId node) const {
  return params_.per_message_overhead +
         sim::from_seconds(static_cast<double>(bytes) /
                           node_bw_[static_cast<std::size_t>(node)]);
}

sim::Task<void> Fabric::send_impl(sim::Ctx ctx, EndpointId src, EndpointId dst,
                                  Message payload) {
  const std::uint64_t bytes = serialized_size(payload);
  const NodeId node = endpoint(src).node();
  Endpoint* target = &endpoint(dst);
  ++packets_sent_;
  bytes_sent_ += bytes;
  if (node == target->node()) {
    // Same node: shared-memory handoff, no NIC, no wire latency. The
    // message moves straight into the mailbox — the common fast path for
    // co-located endpoints.
    target->mailbox_.send(Packet{src, std::move(payload), bytes});
    co_return;
  }
  co_await inject(ctx, node, bytes);
  // The packet lives in the delivery call frame itself: one box per remote
  // send. A sender killed before this point never schedules it, so the
  // message is dropped; from here on the bytes are on the wire.
  eng_->schedule_call(params_.latency,
                      [target, packet = Packet{src, std::move(payload),
                                               bytes}]() mutable {
                        target->mailbox_.send(std::move(packet));
                      });
}

sim::Task<void> Fabric::inject(sim::Ctx ctx, NodeId node, std::uint64_t bytes) {
  auto nic =
      co_await nics_[static_cast<std::size_t>(node)]->acquire(ctx.tok, 1);
  co_await ctx.delay(injection_time(bytes, node));
}

sim::Task<void> Fabric::transmit_impl(sim::Ctx ctx, EndpointId src, EndpointId dst,
                                 std::uint64_t bytes,
                                 std::function<void()> deliver) {
  const NodeId node = endpoint(src).node();
  const NodeId dst_node = endpoint(dst).node();
  ++packets_sent_;
  bytes_sent_ += bytes;

  if (node == dst_node) {
    // Same node: shared-memory handoff, no NIC, no wire latency.
    deliver();
    co_return;
  }
  co_await inject(ctx, node, bytes);
  // Delivery fires even if the sender is killed from here on: the bytes are
  // already on the wire.
  eng_->schedule_call(params_.latency, std::move(deliver));
}

sim::Task<void> Fabric::notify_impl(sim::Ctx ctx, EndpointId src,
                                    EndpointId dst,
                                    std::function<void()> deliver) {
  Endpoint& from = endpoint(src);
  Endpoint& to = endpoint(dst);
  ++packets_sent_;
  if (from.node() == to.node()) {
    deliver();
    co_return;
  }
  co_await ctx.delay(params_.per_message_overhead);
  eng_->schedule_call(params_.latency, std::move(deliver));
}

}  // namespace dstage::net
