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

sim::Task<void> Fabric::send(sim::Ctx ctx, EndpointId src, EndpointId dst,
                             Message payload) {
  const std::uint64_t bytes = serialized_size(payload);
  Endpoint* target = &endpoint(dst);
  // Same node: the packet moves straight into the mailbox. Remote: it
  // lives in the delivery call frame, the one box of a remote send.
  return transmit(ctx, src, dst, bytes,
                  [target, packet = Packet{src, std::move(payload),
                                           bytes}]() mutable {
                    target->mailbox_.send(std::move(packet));
                  });
}

}  // namespace dstage::net
