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
#include <functional>
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

  // NOTE: send()/transmit() are plain functions forwarding to private
  // coroutines. GCC 12's coroutine codegen double-destroys *prvalue*
  // arguments bound to by-value coroutine parameters (xvalues and lvalues
  // are fine); the shim materializes caller temporaries into named
  // parameters and moves them across the coroutine boundary, so call sites
  // may safely pass temporaries.

  /// Transmit `payload` from `src`'s node to `dst`; the wire footprint is
  /// the codec's serialized_size of the message. Suspends the caller for
  /// the injection (serialization) time, then delivery happens
  /// asynchronously after the wire latency. Intra-node sends skip the NIC
  /// and latency.
  sim::Task<void> send(sim::Ctx ctx, EndpointId src, EndpointId dst,
                       Message payload) {
    return send_impl(ctx, src, dst, std::move(payload));
  }

  /// Pay the sender-side transport cost of `bytes` from `src` to `dst`,
  /// then run `deliver` after the wire latency (response path for
  /// Reply-based RPCs, where no mailbox demultiplexing is wanted).
  sim::Task<void> transmit(sim::Ctx ctx, EndpointId src, EndpointId dst,
                           std::uint64_t bytes,
                           std::function<void()> deliver) {
    return transmit_impl(ctx, src, dst, bytes, std::move(deliver));
  }

  /// Completion-queue notification: fixed overhead + wire latency, no NIC
  /// bandwidth (RDMA completions ride the control path and do not queue
  /// behind bulk DMA).
  sim::Task<void> notify(sim::Ctx ctx, EndpointId src, EndpointId dst,
                         std::function<void()> deliver) {
    return notify_impl(ctx, src, dst, std::move(deliver));
  }

  /// Virtual-time cost of pushing `bytes` through the default NIC.
  [[nodiscard]] sim::Duration injection_time(std::uint64_t bytes) const;
  /// Virtual-time cost of pushing `bytes` through `node`'s NIC.
  [[nodiscard]] sim::Duration injection_time(std::uint64_t bytes,
                                             NodeId node) const;

  [[nodiscard]] std::uint64_t packets_sent() const { return packets_sent_; }
  [[nodiscard]] std::uint64_t bytes_sent() const { return bytes_sent_; }

 private:
  sim::Task<void> send_impl(sim::Ctx ctx, EndpointId src, EndpointId dst,
                            Message payload);
  sim::Task<void> transmit_impl(sim::Ctx ctx, EndpointId src, EndpointId dst,
                                std::uint64_t bytes,
                                std::function<void()> deliver);
  sim::Task<void> notify_impl(sim::Ctx ctx, EndpointId src, EndpointId dst,
                              std::function<void()> deliver);
  /// The one NIC-injection routine: FIFO acquire of `node`'s NIC, held
  /// for the injection time of `bytes`. Throws Cancelled if the sender dies
  /// first, so nothing is delivered.
  sim::Task<void> inject(sim::Ctx ctx, NodeId node, std::uint64_t bytes);

  sim::Engine* eng_;
  Params params_;
  std::vector<std::unique_ptr<sim::Resource>> nics_;  // one per node
  std::vector<double> node_bw_;                       // injection bw per node
  std::vector<std::unique_ptr<Endpoint>> endpoints_;
  std::uint64_t packets_sent_ = 0;
  std::uint64_t bytes_sent_ = 0;
};

}  // namespace dstage::net
