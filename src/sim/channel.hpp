// Unbounded FIFO channel between simulated processes — the mailbox primitive
// under every RPC endpoint. send() never blocks; recv() suspends until a
// value arrives or the receiver is killed.
//
// Both queues (pending items, waiting receivers) are a vector plus a head
// index: pops advance the head, and the vector resets once drained, so a
// mailbox that keeps up with its traffic reuses one buffer instead of
// allocating deque nodes. A queue that never drains compacts its consumed
// prefix once it is at least half the vector.
#pragma once

#include <algorithm>
#include <coroutine>
#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

#include "sim/cancel.hpp"
#include "sim/engine.hpp"

namespace dstage::sim {

namespace detail {

/// FIFO over a vector with a head index (see the file comment).
template <class T>
class RingQueue {
 public:
  [[nodiscard]] bool empty() const { return head_ == buf_.size(); }
  [[nodiscard]] std::size_t size() const { return buf_.size() - head_; }
  [[nodiscard]] T& front() { return buf_[head_]; }

  void push_back(T v) { buf_.push_back(std::move(v)); }

  void pop_front() {
    ++head_;
    if (head_ == buf_.size()) {
      buf_.clear();
      head_ = 0;
    } else if (head_ >= kCompactMin && 2 * head_ >= buf_.size()) {
      buf_.erase(buf_.begin(),
                 buf_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
  }

  /// Remove the first element equal to `v`, keeping the others in order.
  void erase_value(const T& v) {
    const auto it = std::find(
        buf_.begin() + static_cast<std::ptrdiff_t>(head_), buf_.end(), v);
    if (it != buf_.end()) buf_.erase(it);
  }

 private:
  static constexpr std::size_t kCompactMin = 64;
  std::vector<T> buf_;
  std::size_t head_ = 0;
};

}  // namespace detail

template <class T>
class Channel {
 public:
  explicit Channel(Engine& eng) : eng_(&eng) {}
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  class RecvAwaiter : public CancelWaiter {
   public:
    RecvAwaiter(Channel& ch, CancelToken* tok) : ch_(&ch), tok_(tok) {}

    [[nodiscard]] bool await_ready() {
      if (tok_ != nullptr && tok_->cancelled()) {
        cancelled_ = true;
        return true;
      }
      if (!ch_->items_.empty()) {
        value_.emplace(std::move(ch_->items_.front()));
        ch_->items_.pop_front();
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) {
      handle_ = h;
      ch_->waiters_.push_back(this);
      if (tok_ != nullptr) tok_->add(this);
    }
    T await_resume() {
      if (tok_ != nullptr) tok_->remove(this);
      if (cancelled_) throw Cancelled{};
      return std::move(*value_);
    }

    void on_cancel() override {
      cancelled_ = true;
      ch_->waiters_.erase_value(this);
      ch_->eng_->schedule_now(handle_);
    }

   private:
    friend class Channel;
    Channel* ch_;
    CancelToken* tok_;
    std::coroutine_handle<> handle_;
    std::optional<T> value_;
    bool cancelled_ = false;
  };

  /// Enqueue a value; wakes the oldest waiting receiver, if any.
  void send(T v) {
    if (!waiters_.empty()) {
      RecvAwaiter* w = waiters_.front();
      waiters_.pop_front();
      w->value_.emplace(std::move(v));
      if (w->tok_ != nullptr) w->tok_->remove(w);
      eng_->schedule_now(w->handle_);
    } else {
      items_.push_back(std::move(v));
    }
  }

  [[nodiscard]] RecvAwaiter recv(CancelToken* tok) {
    return RecvAwaiter{*this, tok};
  }

  [[nodiscard]] std::size_t size() const { return items_.size(); }
  [[nodiscard]] bool empty() const { return items_.empty(); }
  [[nodiscard]] std::size_t waiting_receivers() const {
    return waiters_.size();
  }

 private:
  Engine* eng_;
  detail::RingQueue<T> items_;
  detail::RingQueue<RecvAwaiter*> waiters_;
};

}  // namespace dstage::sim
