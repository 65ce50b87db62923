// Interconnect model. Endpoints (one per virtual process) exchange packets;
// a send serializes on the source node's NIC for bytes/injection_bw (FIFO
// store-and-forward, so injection contention emerges under load) and is
// delivered hop_latency later. Calibrated loosely on a Cray Aries NIC; see
// DESIGN.md §6.
//
// The payload is the typed net::Message vocabulary (message.hpp); the
// fabric computes every packet's modeled serialized size through the codec,
// so callers cannot drift from the cost model.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "net/message.hpp"
#include "net/reply.hpp"
#include "sim/channel.hpp"
#include "sim/context.hpp"
#include "sim/engine.hpp"
#include "sim/event.hpp"
#include "sim/resource.hpp"
#include "sim/task.hpp"

namespace dstage::net {

/// Envelope delivered to an endpoint's mailbox. `bytes` is the codec's
/// serialized_size of the payload, recorded at send time.
struct Packet {
  EndpointId src = -1;
  Message payload;
  std::uint64_t bytes = 0;
};

class Fabric;

/// Addressable mailbox owned by one virtual process.
class Endpoint {
 public:
  Endpoint(sim::Engine& eng, EndpointId id, NodeId node)
      : id_(id), node_(node), mailbox_(eng) {}

  [[nodiscard]] EndpointId id() const { return id_; }
  [[nodiscard]] NodeId node() const { return node_; }
  [[nodiscard]] auto recv(sim::CancelToken* tok) { return mailbox_.recv(tok); }
  [[nodiscard]] std::size_t pending() const { return mailbox_.size(); }

 private:
  friend class Fabric;
  EndpointId id_;
  NodeId node_;
  sim::Channel<Packet> mailbox_;
};

class Fabric {
 public:
  struct Params {
    /// Per-node NIC injection bandwidth (Aries-like).
    double injection_bw = 8e9;  // bytes/s
    /// One-way delivery latency.
    sim::Duration latency = sim::microseconds(2);
    /// Fixed per-message send overhead (matching, descriptor handling).
    sim::Duration per_message_overhead = sim::microseconds(1);
  };

  Fabric(sim::Engine& eng, Params params);

  NodeId add_node();
  /// Creates an endpoint homed on `node`.
  EndpointId add_endpoint(NodeId node);

  /// Override one node's injection bandwidth (an application component
  /// spanning N physical nodes is modeled as one endpoint with N times the
  /// per-node NIC bandwidth).
  void set_node_injection_bw(NodeId node, double bytes_per_sec);
  [[nodiscard]] double node_injection_bw(NodeId node) const;

  [[nodiscard]] Endpoint& endpoint(EndpointId id);
  [[nodiscard]] int node_count() const {
    return static_cast<int>(nics_.size());
  }
  [[nodiscard]] const Params& params() const { return params_; }

  // send()/transmit()/notify() are plain functions forwarding to private
  // coroutines: one frame per message, held while the sender pays its NIC
  // time. GCC 12's coroutine codegen double-destroys *prvalue* arguments
  // bound to by-value coroutine parameters (xvalues and lvalues are fine);
  // the shims materialize caller temporaries into named parameters and
  // move them across the coroutine boundary, so call sites may safely pass
  // temporaries. The packet is built in send(), not in a coroutine body:
  // GCC 12 gives every temporary there its own frame slot.

  /// Transmit `payload` from `src`'s node to `dst`'s mailbox; the wire
  /// footprint is the codec's serialized_size of the message. Suspends the
  /// caller for the injection (serialization) time, then delivery happens
  /// asynchronously after the wire latency. Intra-node sends skip the NIC
  /// and latency.
  sim::Task<void> send(sim::Ctx ctx, EndpointId src, EndpointId dst,
                       Message payload);

  /// Pay the sender-side transport cost of `bytes` from `src` to `dst`,
  /// then run `deliver` after the wire latency (response path for
  /// Reply-based RPCs, where no mailbox demultiplexing is wanted). The
  /// callable rides in the engine's call frame: up to 64 bytes of
  /// captures cost no allocation.
  template <class Deliver>
  sim::Task<void> transmit(sim::Ctx ctx, EndpointId src, EndpointId dst,
                           std::uint64_t bytes, Deliver deliver) {
    return transmit_impl<Deliver>(ctx, src, dst, bytes, std::move(deliver));
  }

  /// Completion-queue notification: fixed overhead + wire latency, no NIC
  /// bandwidth (RDMA completions ride the control path and do not queue
  /// behind bulk DMA).
  template <class Deliver>
  sim::Task<void> notify(sim::Ctx ctx, EndpointId src, EndpointId dst,
                         Deliver deliver) {
    return notify_impl<Deliver>(ctx, src, dst, std::move(deliver));
  }

  /// Virtual-time cost of pushing `bytes` through the default NIC.
  [[nodiscard]] sim::Duration injection_time(std::uint64_t bytes) const;
  /// Virtual-time cost of pushing `bytes` through `node`'s NIC.
  [[nodiscard]] sim::Duration injection_time(std::uint64_t bytes,
                                             NodeId node) const;

  [[nodiscard]] std::uint64_t packets_sent() const { return packets_sent_; }
  [[nodiscard]] std::uint64_t bytes_sent() const { return bytes_sent_; }

 private:
  template <class Deliver>
  sim::Task<void> transmit_impl(sim::Ctx ctx, EndpointId src, EndpointId dst,
                                std::uint64_t bytes, Deliver deliver) {
    const NodeId node = endpoint(src).node();
    const NodeId dst_node = endpoint(dst).node();
    ++packets_sent_;
    bytes_sent_ += bytes;
    if (node == dst_node) {
      // Same node: shared-memory handoff, no NIC, no wire latency.
      deliver();
      co_return;
    }
    {
      // FIFO acquire of the node's NIC, held for the injection time. A
      // sender killed first throws Cancelled, so nothing is delivered.
      auto held = co_await nics_[static_cast<std::size_t>(node)]->acquire(
          ctx.tok, 1);
      co_await ctx.delay(injection_time(bytes, node));
    }  // releasing the NIC wakes the next sender before delivery is queued
    // Delivery fires even if the sender is killed from here on: the bytes
    // are already on the wire.
    eng_->schedule_call(params_.latency, std::move(deliver));
  }

  template <class Deliver>
  sim::Task<void> notify_impl(sim::Ctx ctx, EndpointId src, EndpointId dst,
                              Deliver deliver) {
    const bool same_node = endpoint(src).node() == endpoint(dst).node();
    ++packets_sent_;
    if (same_node) {
      deliver();
      co_return;
    }
    co_await ctx.delay(params_.per_message_overhead);
    eng_->schedule_call(params_.latency, std::move(deliver));
  }

  sim::Engine* eng_;
  Params params_;
  std::vector<std::unique_ptr<sim::Resource>> nics_;  // one per node
  std::vector<double> node_bw_;                       // injection bw per node
  std::vector<std::unique_ptr<Endpoint>> endpoints_;
  std::uint64_t packets_sent_ = 0;
  std::uint64_t bytes_sent_ = 0;
};

}  // namespace dstage::net
