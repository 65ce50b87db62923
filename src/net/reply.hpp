// Endpoint addressing and one-shot reply slots — the part of the transport
// vocabulary the message layer needs without pulling in the full fabric
// model (message.hpp includes this; fabric.hpp includes message.hpp).
#pragma once

#include <cassert>
#include <memory>
#include <optional>
#include <utility>

namespace dstage::net {

using EndpointId = int;
using NodeId = int;

/// Completion slot for request/response exchanges. The server fulfills it
/// through the fabric so the response pays transport costs like any other
/// message. Its one waiter is a call of net::Rpc, registered through
/// wait() and woken from inside fulfill() — or from expire(), when the
/// call's timeout ends the wait — where it schedules its own continuation.
template <class T>
class Reply {
 public:
  /// on_reply() runs inside fulfill() or expire() and must schedule the
  /// waiter's continuation.
  class Waiter {
   public:
    virtual void on_reply() = 0;

   protected:
    ~Waiter() = default;
  };

  Reply() = default;
  Reply(const Reply&) = delete;
  Reply& operator=(const Reply&) = delete;

  /// Server side: set the value and wake the waiter (call after paying any
  /// response-transport cost).
  void fulfill(T value) {
    value_ = std::move(value);
    set();
  }

  /// Ends the wait with no value (a timeout). A fulfill() after it stores
  /// the value but wakes nobody.
  void expire() { set(); }

  [[nodiscard]] bool ready() const { return set_; }
  void wait(Waiter& w) {
    assert(waiter_ == nullptr);
    waiter_ = &w;
  }
  void unwait() { waiter_ = nullptr; }
  /// The value, or nullopt when the wait expired unanswered.
  [[nodiscard]] std::optional<T>& value() { return value_; }
  /// Re-arms an answered slot for a re-send of the same request.
  void reset() {
    value_.reset();
    set_ = false;
  }

 private:
  void set() {
    if (set_) return;
    set_ = true;
    if (waiter_ != nullptr) std::exchange(waiter_, nullptr)->on_reply();
  }

  Waiter* waiter_ = nullptr;
  std::optional<T> value_;
  bool set_ = false;
};

template <class T>
using ReplyPtr = std::shared_ptr<Reply<T>>;

}  // namespace dstage::net
