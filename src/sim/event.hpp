// One-shot broadcast event and a reusable barrier. The barrier models the
// pair of synchronizing barriers that global coordinated checkpointing
// wraps around its snapshots (Section II of the paper).
//
// Waiter lists are plain vectors woken in registration order: an event
// nobody waits on (most when_all and call_all joins) allocates nothing.
#pragma once

#include <algorithm>
#include <coroutine>
#include <vector>

#include "sim/cancel.hpp"
#include "sim/context.hpp"
#include "sim/engine.hpp"

namespace dstage::sim {

/// One-shot event: wait() suspends until set() fires; waits after set()
/// complete immediately.
class OneShotEvent {
 public:
  explicit OneShotEvent(Engine& eng) : eng_(&eng) {}
  OneShotEvent(const OneShotEvent&) = delete;
  OneShotEvent& operator=(const OneShotEvent&) = delete;

  class WaitAwaiter : public CancelWaiter {
   public:
    WaitAwaiter(OneShotEvent& ev, CancelToken* tok) : ev_(&ev), tok_(tok) {}

    [[nodiscard]] bool await_ready() {
      if (tok_ != nullptr && tok_->cancelled()) {
        cancelled_ = true;
        return true;
      }
      return ev_->set_;
    }
    void await_suspend(std::coroutine_handle<> h) {
      handle_ = h;
      ev_->waiters_.push_back(this);
      if (tok_ != nullptr) tok_->add(this);
    }
    void await_resume() {
      if (tok_ != nullptr) tok_->remove(this);
      if (cancelled_) throw Cancelled{};
    }

    void on_cancel() override {
      cancelled_ = true;
      ev_->remove_waiter(this);
      ev_->eng_->schedule_now(handle_);
    }

   private:
    friend class OneShotEvent;
    OneShotEvent* ev_;
    CancelToken* tok_;
    std::coroutine_handle<> handle_;
    bool cancelled_ = false;
  };

  void set() {
    if (set_) return;
    set_ = true;
    std::vector<WaitAwaiter*> pending;
    pending.swap(waiters_);
    for (WaitAwaiter* w : pending) {
      if (w->tok_ != nullptr) w->tok_->remove(w);
      eng_->schedule_now(w->handle_);
    }
  }

  [[nodiscard]] bool is_set() const { return set_; }
  [[nodiscard]] WaitAwaiter wait(CancelToken* tok) {
    return WaitAwaiter{*this, tok};
  }

 private:
  void remove_waiter(WaitAwaiter* w) {
    const auto it = std::find(waiters_.begin(), waiters_.end(), w);
    if (it != waiters_.end()) waiters_.erase(it);
  }

  Engine* eng_;
  bool set_ = false;
  std::vector<WaitAwaiter*> waiters_;
};

/// Reusable N-party barrier with generation counting. A participant that is
/// killed while waiting is unwound via its token; the executor is expected
/// to rebuild the barrier when group membership changes.
class Barrier {
 public:
  Barrier(Engine& eng, int parties) : eng_(&eng), parties_(parties) {}
  Barrier(const Barrier&) = delete;
  Barrier& operator=(const Barrier&) = delete;

  class ArriveAwaiter : public CancelWaiter {
   public:
    ArriveAwaiter(Barrier& b, CancelToken* tok) : b_(&b), tok_(tok) {}

    [[nodiscard]] bool await_ready() {
      if (tok_ != nullptr && tok_->cancelled()) {
        cancelled_ = true;
        return true;
      }
      if (b_->arrived_ + 1 >= b_->parties_) {
        // Last arrival releases the whole generation without suspending.
        b_->release_all();
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) {
      handle_ = h;
      ++b_->arrived_;
      b_->waiters_.push_back(this);
      if (tok_ != nullptr) tok_->add(this);
    }
    void await_resume() {
      if (tok_ != nullptr) tok_->remove(this);
      if (cancelled_) throw Cancelled{};
    }

    void on_cancel() override {
      cancelled_ = true;
      b_->remove_waiter(this);
      --b_->arrived_;
      b_->eng_->schedule_now(handle_);
    }

   private:
    friend class Barrier;
    Barrier* b_;
    CancelToken* tok_;
    std::coroutine_handle<> handle_;
    bool cancelled_ = false;
  };

  /// co_await barrier.arrive_and_wait(tok)
  [[nodiscard]] ArriveAwaiter arrive_and_wait(CancelToken* tok) {
    return ArriveAwaiter{*this, tok};
  }

  [[nodiscard]] int parties() const { return parties_; }
  [[nodiscard]] int arrived() const { return arrived_; }
  /// Change membership (e.g. after recovery rebuilds the group). If the
  /// waiters already satisfy the new size, the generation releases now.
  void set_parties(int parties) {
    parties_ = parties;
    if (arrived_ >= parties_ && arrived_ > 0) release_all();
  }

 private:
  void release_all() {
    std::vector<ArriveAwaiter*> pending;
    pending.swap(waiters_);
    arrived_ = 0;
    for (ArriveAwaiter* w : pending) {
      if (w->tok_ != nullptr) w->tok_->remove(w);
      eng_->schedule_now(w->handle_);
    }
  }
  void remove_waiter(ArriveAwaiter* w) {
    const auto it = std::find(waiters_.begin(), waiters_.end(), w);
    if (it != waiters_.end()) waiters_.erase(it);
  }

  Engine* eng_;
  int parties_;
  int arrived_ = 0;
  std::vector<ArriveAwaiter*> waiters_;
};

}  // namespace dstage::sim
