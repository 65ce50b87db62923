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

#include <coroutine>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "net/message.hpp"
#include "net/reply.hpp"
#include "sim/channel.hpp"
#include "sim/context.hpp"
#include "sim/engine.hpp"
#include "sim/frame_pool.hpp"
#include "sim/resource.hpp"

namespace dstage::net {

/// Envelope delivered to an endpoint's mailbox. `bytes` is the codec's
/// serialized_size of the payload, recorded at send time.
struct Packet {
  EndpointId src = -1;
  Message payload;
  std::uint64_t bytes = 0;
};

class Fabric;
class Transfer;

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
  friend class Transfer;
  EndpointId id_;
  NodeId node_;
  sim::Channel<Packet> mailbox_;
};

/// The sender's side of one message as a plain state machine fired by
/// the engine (sim::Wake): count the packet, queue for the source node's
/// NIC, hold it for the injection time, release it, then schedule the
/// delivery after the wire latency. A control-path transfer pays a fixed
/// overhead instead and skips the NIC; a same-node transfer hands over at
/// once. A sender killed before its bytes are on the wire delivers
/// nothing.
///
/// Every step schedules exactly the engine item — at the same point, in
/// the same order — that the coroutine sender it replaced scheduled, so
/// event ids and same-time order are unchanged: a queued transfer waits in
/// the NIC's FIFO beside coroutine acquirers, and each wake (grant, timer,
/// kill) is one engine item where the coroutine had one resume.
///
/// Subclasses say what delivery means and what follows the sender's part:
/// the co_await form (`TransferOp`, returned by Fabric::send and
/// Rpc::send/fulfill) resumes the awaiting frame, which holds the state,
/// so awaiting costs no frame; Fabric::post runs one detached; a call of
/// Rpc::call_all embeds one and restarts it per attempt.
class Transfer : public sim::Resource::Waiter, public sim::Wake {
 public:
  Transfer(const Transfer&) = delete;
  Transfer& operator=(const Transfer&) = delete;

 protected:
  /// Step tags below this are the transfer's; a subclass firing its own
  /// steps through the same engine items numbers them from here.
  static constexpr std::uint32_t kSubclassSteps = 3;

  /// `bulk` pays `bytes` on the source node's NIC (and counts them);
  /// otherwise the message rides the control path.
  Transfer(Fabric& fabric, sim::CancelToken* tok, EndpointId src,
           EndpointId dst, std::uint64_t bytes, bool bulk);
  /// Moves a transfer that has not started (nothing holds its address
  /// yet): how Fabric::post takes over an awaitable.
  Transfer(Transfer&& other) noexcept;
  Transfer& operator=(Transfer&&) = delete;
  ~Transfer() = default;

  /// Counts the packet and starts the transfer. True when it is already
  /// over — handed over on the same node, or the sender was killed
  /// (cancelled()) — and finished() will not be called for it.
  bool start();
  [[nodiscard]] bool cancelled() const { return cancelled_; }
  /// True while the sender is registered with its cancel token.
  [[nodiscard]] bool sending() const {
    return phase_ == Phase::kQueued || phase_ == Phase::kInjecting;
  }
  [[nodiscard]] sim::Engine& engine() const;
  [[nodiscard]] EndpointId dst() const;
  [[nodiscard]] std::uint64_t bytes() const { return bytes_; }

  /// Same node: deliver now.
  virtual void deliver_now() = 0;
  /// The bytes are on the wire: schedule delivery `latency` from now.
  virtual void deliver_after(sim::Duration latency) = 0;
  /// The sender's part is over: delivery is scheduled, or cancelled().
  virtual void finished() = 0;
  /// Last hop for a subclass that carries a Packet: into the
  /// destination's mailbox, now or after `latency`.
  void drop(Packet&& packet);
  void drop_after(sim::Duration latency, Packet&& packet);

  void on_cancel() override;
  void fire(std::uint32_t step) override;

  /// The transfer's timed item while it is sending; a subclass reuses it
  /// for its own waits (a reply timeout, a backoff) once finished().
  sim::EventId timer_ = 0;

 private:
  enum class Phase : std::uint8_t { kIdle, kQueued, kGranted, kInjecting };
  enum Step : std::uint32_t { kGrantedStep, kInjectedStep, kKilledStep };

  void on_grant() override;
  void inject();
  void injected();
  [[nodiscard]] NodeId src_node() const;
  [[nodiscard]] sim::Resource& nic() const;  // the source node's

  Fabric* fabric_;
  sim::CancelToken* tok_;
  Endpoint* target_;
  std::uint64_t bytes_;
  EndpointId src_;
  bool bulk_;
  Phase phase_ = Phase::kIdle;
  bool holds_nic_ = false;
  bool cancelled_ = false;
};

/// The co_await form of a transfer: the awaiting frame holds the state and
/// resumes when the sender's part is over, throwing sim::Cancelled if the
/// sender was killed first. Delivery runs `deliver` (a Packet for the
/// destination's mailbox, or a callable — Rpc::fulfill's reply). A
/// callable rides in the engine's call frame: up to 64 bytes of captures
/// cost no allocation.
template <class Deliver>
class [[nodiscard]] TransferOp : public Transfer {
 public:
  TransferOp(Fabric& fabric, sim::Ctx ctx, EndpointId src, EndpointId dst,
             std::uint64_t bytes, bool bulk, Deliver deliver)
      : Transfer(fabric, ctx.tok, src, dst, bytes, bulk),
        deliver_(std::move(deliver)) {}
  TransferOp(TransferOp&&) = default;

  bool await_ready() { return start(); }
  void await_suspend(std::coroutine_handle<> h) { handle_ = h; }
  void await_resume() const {
    if (cancelled()) throw sim::Cancelled{};
  }

 protected:
  void deliver_now() override {
    if constexpr (std::is_same_v<Deliver, Packet>) {
      drop(std::move(deliver_));
    } else {
      deliver_();
    }
  }
  void deliver_after(sim::Duration latency) override {
    if constexpr (std::is_same_v<Deliver, Packet>) {
      drop_after(latency, std::move(deliver_));
    } else {
      engine().schedule_call(latency, std::move(deliver_));
    }
  }
  void finished() override { handle_.resume(); }

 private:
  Deliver deliver_;
  std::coroutine_handle<> handle_;
};

using SendOp = TransferOp<Packet>;

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
  [[nodiscard]] sim::Engine& engine() const { return *eng_; }

  /// Transmit `payload` from `src`'s node to `dst`'s mailbox; the wire
  /// footprint is the codec's serialized_size of the message. co_await the
  /// TransferOp to pay the sender's part (no coroutine frame), or hand it
  /// to post(). The awaiter resumes after the injection (serialization)
  /// time; delivery happens asynchronously after the wire latency.
  /// Intra-node sends skip the NIC and latency.
  SendOp send(sim::Ctx ctx, EndpointId src, EndpointId dst, Message payload);

  /// Runs `op` detached, started at the current virtual time after the
  /// items already queued — where a spawned sender process used to start.
  /// Its state is one pooled allocation, freed when the sender's part is
  /// over.
  template <class Deliver>
  void post(TransferOp<Deliver>&& op);

  /// Virtual-time cost of pushing `bytes` through the default NIC.
  [[nodiscard]] sim::Duration injection_time(std::uint64_t bytes) const;
  /// Virtual-time cost of pushing `bytes` through `node`'s NIC.
  [[nodiscard]] sim::Duration injection_time(std::uint64_t bytes,
                                             NodeId node) const;

  [[nodiscard]] std::uint64_t packets_sent() const { return packets_sent_; }
  [[nodiscard]] std::uint64_t bytes_sent() const { return bytes_sent_; }

 private:
  friend class Transfer;

  /// A posted transfer: started by an engine call, deleted when over.
  template <class Deliver>
  class Posted final : public TransferOp<Deliver>, public sim::PooledFrame {
   public:
    explicit Posted(TransferOp<Deliver>&& op)
        : TransferOp<Deliver>(std::move(op)) {}
    void begin() {
      if (this->start()) delete this;
    }

   private:
    void finished() override { delete this; }
  };

  sim::Engine* eng_;
  Params params_;
  std::vector<std::unique_ptr<sim::Resource>> nics_;  // one per node
  std::vector<double> node_bw_;                       // injection bw per node
  std::vector<std::unique_ptr<Endpoint>> endpoints_;
  std::uint64_t packets_sent_ = 0;
  std::uint64_t bytes_sent_ = 0;
};

inline sim::Engine& Transfer::engine() const { return fabric_->engine(); }
inline EndpointId Transfer::dst() const { return target_->id(); }

template <class Deliver>
void Fabric::post(TransferOp<Deliver>&& op) {
  auto* posted = new Posted<Deliver>(std::move(op));
  eng_->schedule_call({0}, [posted] { posted->begin(); });
}

}  // namespace dstage::net
