// Endpoint addressing and one-shot reply slots — the part of the transport
// vocabulary the message layer needs without pulling in the full fabric
// model (message.hpp includes this; fabric.hpp includes message.hpp).
#pragma once

#include <coroutine>
#include <memory>
#include <optional>
#include <utility>

#include "sim/context.hpp"
#include "sim/engine.hpp"
#include "sim/event.hpp"

namespace dstage::net {

using EndpointId = int;
using NodeId = int;

/// One-shot completion slot for request/response exchanges. The client
/// co_awaits take_for(); the server fulfills through the fabric so the
/// response pays transport costs like any other message. The wait is an
/// awaiter that suspends the caller's own frame: waiting costs no
/// coroutine frame.
template <class T>
class Reply {
 public:
  explicit Reply(sim::Engine& eng) : done_(eng) {}

  /// Server side: set the value and wake the client (call after paying any
  /// response-transport cost).
  void fulfill(T value) {
    value_ = std::move(value);
    done_.set();
  }

  /// Waits for the value; a timer set when the wait starts ends it after
  /// `timeout` (no timer when `timeout` <= 0). The timer is cancelled when
  /// the wait ends — including a killed waiter unwinding — so it never
  /// fires on a reply its waiter has dropped.
  class [[nodiscard]] TakeFor {
   public:
    TakeFor(Reply& reply, sim::Ctx ctx, sim::Duration timeout)
        : reply_(&reply),
          eng_(ctx.eng),
          timeout_(timeout),
          wait_(reply.done_.wait(ctx.tok)) {}
    bool await_ready() {
      if (timeout_.ns > 0) {
        timer_ = eng_->schedule_call(timeout_, [this] { reply_->done_.set(); });
      }
      return wait_.await_ready();
    }
    void await_suspend(std::coroutine_handle<> h) { wait_.await_suspend(h); }
    std::optional<T> await_resume() {
      // Cancelling a timer that already fired is a no-op.
      if (timeout_.ns > 0) eng_->cancel_event(timer_);
      wait_.await_resume();
      return std::move(reply_->value_);
    }

   private:
    Reply* reply_;
    sim::Engine* eng_;
    sim::Duration timeout_;
    sim::EventId timer_ = 0;
    sim::OneShotEvent::WaitAwaiter wait_;
  };

  /// Client side: wait for the response, at most `timeout` (<= 0: no
  /// limit); nullopt when the server never answered (e.g. it crashed
  /// mid-request) so the caller can retry with a fresh Reply.
  TakeFor take_for(sim::Ctx ctx, sim::Duration timeout) {
    return TakeFor{*this, ctx, timeout};
  }

 private:
  sim::OneShotEvent done_;
  std::optional<T> value_;
};

template <class T>
using ReplyPtr = std::shared_ptr<Reply<T>>;

template <class T>
ReplyPtr<T> make_reply(sim::Engine& eng) {
  return std::make_shared<Reply<T>>(eng);
}

}  // namespace dstage::net
