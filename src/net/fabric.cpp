#include "net/fabric.hpp"

#include <cassert>
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

SendOp Fabric::send(sim::Ctx ctx, EndpointId src, EndpointId dst,
                    Message payload) {
  const std::uint64_t bytes = serialized_size(payload);
  // Same node: the packet moves straight into the mailbox. Remote: it
  // moves into the delivery call frame, the one box of a remote send.
  return SendOp(*this, ctx, src, dst, bytes, /*bulk=*/true,
                Packet{src, std::move(payload), bytes});
}

Transfer::Transfer(Fabric& fabric, sim::CancelToken* tok, EndpointId src,
                   EndpointId dst, std::uint64_t bytes, bool bulk)
    : Waiter(1),
      fabric_(&fabric),
      tok_(tok),
      target_(&fabric.endpoint(dst)),
      bytes_(bytes),
      src_(src),
      bulk_(bulk) {}

NodeId Transfer::src_node() const { return fabric_->endpoint(src_).node(); }

sim::Resource& Transfer::nic() const {
  return *fabric_->nics_[static_cast<std::size_t>(src_node())];
}

Transfer::Transfer(Transfer&& other) noexcept
    : Waiter(1),
      fabric_(other.fabric_),
      tok_(other.tok_),
      target_(other.target_),
      bytes_(other.bytes_),
      src_(other.src_),
      bulk_(other.bulk_) {
  assert(other.phase_ == Phase::kIdle && !other.holds_nic_);
}

bool Transfer::start() {
  const NodeId node = src_node();
  ++fabric_->packets_sent_;
  if (bulk_) fabric_->bytes_sent_ += bytes_;
  cancelled_ = false;
  if (node == target_->node()) {
    // Same node: shared-memory handoff, no NIC, no wire latency.
    deliver_now();
    return true;
  }
  if (tok_ != nullptr && tok_->cancelled()) {
    cancelled_ = true;
    return true;
  }
  // FIFO acquire of the node's NIC, held for the injection time.
  if (bulk_ && !nic().enqueue(*this)) {
    phase_ = Phase::kQueued;
    if (tok_ != nullptr) tok_->add(this);
    return false;
  }
  holds_nic_ = bulk_;
  inject();
  return false;
}

void Transfer::on_grant() {
  phase_ = Phase::kGranted;
  holds_nic_ = true;
  if (tok_ != nullptr) tok_->remove(this);
  engine().schedule_fire({0}, *this, kGrantedStep);
}

void Transfer::inject() {
  phase_ = Phase::kInjecting;
  const sim::Duration cost =
      bulk_ ? fabric_->injection_time(bytes_, src_node())
            : fabric_->params_.per_message_overhead;
  timer_ = engine().schedule_fire(cost, *this, kInjectedStep);
  if (tok_ != nullptr) tok_->add(this);
}

void Transfer::injected() {
  if (tok_ != nullptr) tok_->remove(this);
  phase_ = Phase::kIdle;
  // Releasing the NIC wakes the next sender before delivery is queued.
  // Delivery fires even if the sender is killed from here on: the bytes
  // are already on the wire.
  if (std::exchange(holds_nic_, false)) {
    nic().release(1);
  }
  deliver_after(fabric_->params_.latency);
  finished();
}

void Transfer::on_cancel() {
  // A killed sender delivers nothing. Its unwind is one engine item, where
  // the coroutine sender's was one resume: a queued sender leaves the NIC
  // queue now; an injecting one frees the NIC in that item.
  if (phase_ == Phase::kQueued) {
    nic().withdraw(*this);
  } else {
    engine().cancel_event(timer_);
  }
  phase_ = Phase::kIdle;
  engine().schedule_fire({0}, *this, kKilledStep);
}

void Transfer::fire(std::uint32_t step) {
  switch (step) {
    case kGrantedStep:
      // Killed between the grant and its turn: the wait for the wire
      // never starts.
      if (tok_ == nullptr || !tok_->cancelled()) {
        inject();
        return;
      }
      phase_ = Phase::kIdle;
      break;
    case kInjectedStep:
      injected();
      return;
    default:  // kKilledStep
      break;
  }
  cancelled_ = true;
  if (std::exchange(holds_nic_, false)) {
    nic().release(1);
  }
  finished();
}

void Transfer::drop(Packet&& packet) {
  target_->mailbox_.send(std::move(packet));
}

void Transfer::drop_after(sim::Duration latency, Packet&& packet) {
  engine().schedule_call(latency, [target = target_,
                                   packet = std::move(packet)]() mutable {
    target->mailbox_.send(std::move(packet));
  });
}

}  // namespace dstage::net
