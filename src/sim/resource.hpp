// Counted FIFO resource with RAII grants — the contention primitive behind
// the PFS bandwidth model and NIC injection queues. Strict FIFO granting
// keeps runs deterministic and models store-and-forward queueing.
//
// A waiter is either a coroutine (co_await acquire()) or a plain state
// machine (enqueue(), used by net::Transfer): both sit in one queue and
// are granted at the same point, each scheduling its own continuation as
// one engine item — so swapping one form for the other moves no event.
#pragma once

#include <coroutine>
#include <cstdint>
#include <deque>
#include <stdexcept>
#include <utility>

#include "sim/cancel.hpp"
#include "sim/engine.hpp"

namespace dstage::sim {

class Resource {
 public:
  Resource(Engine& eng, std::uint64_t capacity)
      : eng_(&eng), capacity_(capacity), available_(capacity) {}
  Resource(const Resource&) = delete;
  Resource& operator=(const Resource&) = delete;

  /// RAII ownership of `amount` units; releases on destruction.
  class [[nodiscard]] Guard {
   public:
    Guard() = default;
    Guard(Resource* res, std::uint64_t amount) : res_(res), amount_(amount) {}
    Guard(Guard&& o) noexcept
        : res_(std::exchange(o.res_, nullptr)), amount_(o.amount_) {}
    Guard& operator=(Guard&& o) noexcept {
      if (this != &o) {
        reset();
        res_ = std::exchange(o.res_, nullptr);
        amount_ = o.amount_;
      }
      return *this;
    }
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;
    ~Guard() { reset(); }

    void reset() {
      if (res_ != nullptr) {
        res_->release(amount_);
        res_ = nullptr;
      }
    }
    [[nodiscard]] bool owns() const { return res_ != nullptr; }

   private:
    Resource* res_ = nullptr;
    std::uint64_t amount_ = 0;
  };

  /// A queued acquire. grant() takes the units, then calls on_grant(),
  /// which must schedule the waiter's continuation (and drop it from its
  /// cancel token).
  class Waiter : public CancelWaiter {
   public:
    virtual void on_grant() = 0;
    [[nodiscard]] std::uint64_t amount() const { return amount_; }

   protected:
    explicit Waiter(std::uint64_t amount) : amount_(amount) {}
    ~Waiter() = default;

   private:
    friend class Resource;
    std::uint64_t amount_;
  };

  class AcquireAwaiter : public Waiter {
   public:
    AcquireAwaiter(Resource& res, CancelToken* tok, std::uint64_t amount)
        : Waiter(amount), res_(&res), tok_(tok) {
      if (amount > res_->capacity_)
        throw std::invalid_argument("acquire exceeds resource capacity");
    }

    [[nodiscard]] bool await_ready() {
      if (tok_ != nullptr && tok_->cancelled()) {
        cancelled_ = true;
        return true;
      }
      return res_->try_take(*this);
    }
    void await_suspend(std::coroutine_handle<> h) {
      handle_ = h;
      res_->queue_.push_back(this);
      if (tok_ != nullptr) tok_->add(this);
    }
    Guard await_resume() {
      if (tok_ != nullptr) tok_->remove(this);
      if (cancelled_) throw Cancelled{};
      return Guard{res_, amount()};
    }

    void on_grant() override {
      if (tok_ != nullptr) tok_->remove(this);
      res_->eng_->schedule_now(handle_);
    }
    void on_cancel() override {
      cancelled_ = true;
      res_->withdraw(*this);
      res_->eng_->schedule_now(handle_);
    }

   private:
    Resource* res_;
    CancelToken* tok_;
    std::coroutine_handle<> handle_;
    bool cancelled_ = false;
  };

  /// auto guard = co_await res.acquire(tok, n);
  [[nodiscard]] AcquireAwaiter acquire(CancelToken* tok,
                                       std::uint64_t amount = 1) {
    return AcquireAwaiter{*this, tok, amount};
  }

  /// Callback form of acquire(): takes `w`'s units now when nobody queues
  /// ahead and they are free (true), else queues `w` for on_grant()
  /// (false). The owner releases the units with release().
  bool enqueue(Waiter& w) {
    if (try_take(w)) return true;
    queue_.push_back(&w);
    return false;
  }
  /// Drops a queued waiter without granting it (its owner was killed).
  void withdraw(Waiter& w) {
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
      if (*it == &w) {
        queue_.erase(it);
        return;
      }
    }
  }

  void release(std::uint64_t amount) {
    available_ += amount;
    if (available_ > capacity_)
      throw std::logic_error("resource over-released");
    grant();
  }

  [[nodiscard]] std::uint64_t capacity() const { return capacity_; }
  [[nodiscard]] std::uint64_t available() const { return available_; }
  [[nodiscard]] std::size_t queue_length() const { return queue_.size(); }

 private:
  void grant() {
    while (!queue_.empty()) {
      Waiter* w = queue_.front();
      if (w->amount_ > available_) break;  // strict FIFO: no overtaking
      queue_.pop_front();
      available_ -= w->amount_;
      w->on_grant();
    }
  }
  bool try_take(const Waiter& w) {
    if (!queue_.empty() || w.amount() > available_) return false;
    available_ -= w.amount();
    return true;
  }

  Engine* eng_;
  std::uint64_t capacity_;
  std::uint64_t available_;
  std::deque<Waiter*> queue_;
};

}  // namespace dstage::sim
