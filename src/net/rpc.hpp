// Unified RPC transport over the fabric. One Rpc per endpoint owner
// (staging client or server) routes every message — typed request/response
// calls, one-way sends, and response fulfilment — through the codec, and
// owns the timeout/retry/backoff loop that used to be re-implemented by
// every caller.
//
// Frame budget: a fan-out of N calls (call_all) is one coroutine frame
// plus one array of N call slots, whatever N is. Each slot is a plain
// state machine the engine wakes directly — start, NIC wait and
// injection, reply wake, RetryLater or timeout re-send — at exactly the
// points where a per-call coroutine used to be resumed, so event ids and
// every digest are unchanged. call() is the one-call case, run in the
// awaiting frame; send() and fulfill() return the fabric's TransferOp, so
// awaiting them costs no frame either.
//
// GCC 12 note: call_all() is a plain function that moves its arguments —
// xvalues — into the private coroutine (GCC 12 double-destroys *prvalue*
// arguments bound to by-value coroutine parameters). Keep it that way when
// adding entry points.
#pragma once

#include <coroutine>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "net/fabric.hpp"
#include "net/message.hpp"
#include "sim/context.hpp"
#include "sim/event.hpp"
#include "sim/task.hpp"

namespace dstage::net {

/// Retry discipline for a call(). The defaults reproduce the historical
/// client behavior: timeout 0 waits forever (no retries — coupling reads
/// legitimately block for long stretches), and a zero backoff re-sends
/// immediately on timeout.
struct RetryPolicy {
  /// Per-attempt response timeout; <= 0 waits forever on the first send.
  sim::Duration timeout{0};
  /// Total sends before the call gives up (first attempt included).
  int max_attempts = 6;
  /// Delay before re-sending, doubled after every failed attempt
  /// (0 = immediate re-send).
  sim::Duration backoff{0};
  /// Separate cap for memory-governor RetryLater rejections. These are
  /// answered requests, not lost ones, so they never consume timeout
  /// attempts; they resolve when consumer checkpoints let GC (or a spill)
  /// free memory, which can legitimately take many backoff rounds.
  int max_backpressure_retries = 32;
};

struct RpcStats {
  std::uint64_t calls = 0;      // calls started
  std::uint64_t oneways = 0;    // fire-and-forget send()s
  std::uint64_t responses = 0;  // calls answered
  std::uint64_t retries = 0;    // re-sends after a timeout
  std::uint64_t exhausted = 0;  // calls that gave up after max_attempts
  /// Backoff waits honoring a RetryLater (memory-governor backpressure).
  std::uint64_t backpressure_waits = 0;
};

/// Backpressure backoff base when the policy's backoff is 0 (immediate
/// re-send would hammer a server that just said "not now").
inline constexpr sim::Duration kBackpressureBackoff = sim::microseconds(200);

/// Responses at or below this ride the control path (RDMA completion
/// notification); larger responses pay NIC bandwidth like any bulk send.
inline constexpr std::uint64_t kControlPathBytes = 256;

/// One call of a call_all() fan-out.
template <class Req>
struct Addressed {
  EndpointId dst = -1;
  Req request;
};

template <class Req>
class FanOut;

class Rpc {
  template <class Req>
  class Batch;
  template <class Req>
  friend class FanOut;

 public:
  Rpc(Fabric& fabric, EndpointId self) : fabric_(&fabric), self_(self) {}

  [[nodiscard]] EndpointId self() const { return self_; }
  [[nodiscard]] const RpcStats& stats() const { return stats_; }

  /// Install a check that every call runs on its destination and (a copy
  /// of) its request when it starts and again before it fails for
  /// exhausted retries; the check throws to fail the call with its own
  /// error.
  void set_peer_check(
      std::function<void(EndpointId, const Message&)> check) {
    peer_check_ = std::move(check);
  }

  /// One-way message: pays send-side transport, no response expected.
  /// co_await it, or hand it to post().
  SendOp send(sim::Ctx ctx, EndpointId dst, Message message) {
    ++stats_.oneways;
    return fabric_->send(ctx, self_, dst, std::move(message));
  }

  /// Runs a send() or fulfill() detached (Fabric::post).
  template <class Deliver>
  void post(TransferOp<Deliver>&& op) {
    fabric_->post(std::move(op));
  }

  /// Server side: pay response transport for `value` (codec-sized), then
  /// fulfill the client's reply slot after the wire latency. Responses up
  /// to kControlPathBytes are RDMA completion notifications: they ride the
  /// control path (fixed overhead, no NIC bandwidth, no queueing behind
  /// bulk DMA). Larger ones pay NIC bandwidth like any bulk send.
  template <class Resp>
  auto fulfill(sim::Ctx ctx, EndpointId dst, ReplyPtr<Resp> reply,
               Resp value) {
    const std::uint64_t bytes = wire_size(value);
    auto deliver = [reply = std::move(reply), v = std::move(value)]() mutable {
      reply->fulfill(std::move(v));
    };
    return TransferOp<decltype(deliver)>(*fabric_, ctx, self_, dst, bytes,
                                         bytes > kControlPathBytes,
                                         std::move(deliver));
  }

  /// Runs every call concurrently in virtual time and completes when all
  /// have ended, with each one's outcome; a failed call never cuts its
  /// siblings short. Each call fills in its request's reply slot, sends,
  /// and waits per `policy`: a RetryLater answer re-sends after an
  /// escalating backoff; a timeout re-sends with a fresh slot, so a late
  /// response to a lost attempt cannot satisfy the retry; exhausted
  /// retries fail the call. Throws only sim::Cancelled, when the caller is
  /// killed — its calls then unwind on their own.
  template <class Req>
  sim::Task<FanOut<Req>> call_all(sim::Ctx ctx,
                                  std::vector<Addressed<Req>> calls,
                                  RetryPolicy policy = {}) {
    auto batch =
        std::make_shared<Batch<Req>>(*this, ctx, policy, calls.size());
    for (Addressed<Req>& c : calls) batch->add(c.dst, std::move(c.request));
    // Free the moved-from input now: the caller's co_await keeps the
    // argument alive until the fan-out ends.
    std::vector<Addressed<Req>>().swap(calls);
    return call_all_impl<Req>(ctx, std::move(batch));
  }

  /// One typed request/response call: the one-call case of call_all(),
  /// started and ended in the awaiting frame. Throws the call's error.
  template <class Req>
  class [[nodiscard]] CallAwaiter;

  template <class Req>
  CallAwaiter<Req> call(sim::Ctx ctx, EndpointId dst, Req request,
                        RetryPolicy policy = {});

 private:
  template <class Req>
  class Call;

  /// Shares a batch with the frame or awaiter that started it. One that
  /// goes away while calls are still in flight (a killed caller) hands its
  /// share to the batch, which lets go when its last call ends.
  template <class Req>
  class Hold {
   public:
    explicit Hold(std::shared_ptr<Batch<Req>> batch)
        : batch_(std::move(batch)) {}
    Hold(const Hold&) = delete;
    Hold& operator=(const Hold&) = delete;
    ~Hold() {
      if (batch_ != nullptr && batch_->pending_ > 0) {
        batch_->direct_ = {};
        batch_->keep_ = std::move(batch_);
      }
    }
    Batch<Req>* operator->() const { return batch_.get(); }
    [[nodiscard]] std::shared_ptr<Batch<Req>> share() const { return batch_; }

   private:
    std::shared_ptr<Batch<Req>> batch_;
  };

  template <class Req>
  sim::Task<FanOut<Req>> call_all_impl(sim::Ctx ctx,
                                       std::shared_ptr<Batch<Req>> batch) {
    Hold<Req> hold(std::move(batch));
    if (hold->pending_ > 0) {
      // Each call starts where sim::when_all scheduled a child.
      hold->schedule_starts();
      co_await hold->done_.wait(ctx.tok);
    }
    co_return FanOut<Req>(hold.share());
  }

  template <class Req>
  void check_peer(EndpointId dst, const Req& request) const {
    if (peer_check_) peer_check_(dst, Message{request});
  }
  /// Counts an exhausted call, runs the peer check, then throws
  /// "rpc <name> <why>".
  template <class Req>
  [[noreturn]] void give_up(EndpointId dst, const Req& request,
                            const char* why) {
    ++stats_.exhausted;
    check_peer(dst, request);
    throw std::runtime_error(std::string("rpc ") + message_name(request) +
                             why);
  }

  /// A memory-governor RetryLater answer (only put-like responses carry
  /// one).
  template <class Resp>
  static bool retry_later(const Resp& resp) {
    if constexpr (requires { resp.retry_later; }) {
      return resp.retry_later;
    } else {
      return false;
    }
  }

  Fabric* fabric_;
  EndpointId self_;
  RpcStats stats_;
  std::function<void(EndpointId, const Message&)> peer_check_;
};

/// One call's slot: the retained request, its reply slot, the attempt and
/// backoff counters, and the transfer it restarts per attempt. Every step
/// is an engine wake-up of the slot itself (no call frame); only one wait
/// (NIC, injection, reply or backoff) is armed at a time, and a kill
/// unwinds it with one engine item.
template <class Req>
class Rpc::Call final : public Transfer,
                        public Reply<typename Req::Response>::Waiter {
 public:
  using Resp = typename Req::Response;
  enum Step : std::uint32_t {
    kStart = kSubclassSteps,
    kExpire,      // the reply timeout
    kReplied,     // the reply slot was set
    kBackedOff,   // a backoff ended
    kUnwindReply,
    kUnwindBackoff,
  };

  Call(Batch<Req>& batch, EndpointId dst, Req request)
      : Transfer(*batch.rpc_->fabric_, batch.ctx_.tok, batch.rpc_->self_, dst,
                 wire_size(request), /*bulk=*/true),
        batch_(&batch),
        request_(std::move(request)) {}

  /// Peer check, count, first send.
  void begin() {
    try {
      rpc().check_peer(dst(), request_);
    } catch (...) {
      fail(std::current_exception());
      return;
    }
    ++rpc().stats_.calls;
    send();
  }

  [[nodiscard]] const Req& request() const { return request_; }
  /// The answer, once the call ended answered; null if it failed.
  [[nodiscard]] Resp* response() {
    if (failed_) return nullptr;
    std::optional<Resp>& value = reply().value();
    return value ? &*value : nullptr;
  }

 private:
  enum class Wait : std::uint8_t { kNone, kReply, kBackoff };

  Rpc& rpc() const { return *batch_->rpc_; }
  sim::Engine& eng() const { return *batch_->ctx_.eng; }
  sim::CancelToken* tok() const { return batch_->ctx_.tok; }
  const RetryPolicy& policy() const { return batch_->policy_; }
  [[nodiscard]] std::size_t index() const { return this - batch_->slots_; }
  /// The slot this attempt is answered in: the inline one until an
  /// attempt times out, then the fresh one the retained request carries.
  Reply<Resp>& reply() {
    return request_.reply != nullptr ? *request_.reply : slot_;
  }

  void fire(std::uint32_t step) override {
    switch (step) {
      case kStart:
        begin();
        return;
      case kExpire:
        reply().expire();
        return;
      case kReplied:
        replied();
        return;
      case kBackedOff:
        wait_ = Wait::kNone;
        if (tok() != nullptr) tok()->remove(this);
        send();
        return;
      case kUnwindReply:
        unwind_reply_wait();
        return;
      case kUnwindBackoff:
        fail(std::make_exception_ptr(sim::Cancelled{}));
        return;
      default:
        Transfer::fire(step);
    }
  }

  /// One attempt: a copy of the request carrying this attempt's slot.
  void send() {
    if (start()) sent();
  }
  Packet packet() {
    Req req = request_;
    req.reply_to = rpc().self_;
    // The server's handle keeps the slot alive after its caller stopped
    // waiting for it: the inline slot's handle shares the batch.
    if (req.reply == nullptr) {
      req.reply = ReplyPtr<Resp>(batch_->shared_from_this(), &slot_);
    }
    return Packet{rpc().self_, Message{std::move(req)}, bytes()};
  }
  void deliver_now() override { drop(packet()); }
  void deliver_after(sim::Duration latency) override {
    drop_after(latency, packet());
  }
  void finished() override { sent(); }

  /// The attempt's bytes are out: wait for the reply.
  void sent() {
    if (cancelled()) {
      fail(std::make_exception_ptr(sim::Cancelled{}));
      return;
    }
    if (policy().timeout.ns > 0) {
      timer_ = eng().schedule_fire(policy().timeout, *this, kExpire);
    }
    if (tok() != nullptr && tok()->cancelled()) {
      unwind_reply_wait();
      return;
    }
    if (reply().ready()) {
      replied();
      return;
    }
    reply().wait(*this);
    wait_ = Wait::kReply;
    if (tok() != nullptr) tok()->add(this);
  }

  void on_reply() override {
    wait_ = Wait::kNone;
    if (tok() != nullptr) tok()->remove(this);
    eng().schedule_fire({0}, *this, kReplied);
  }

  void replied() {
    // Cancelling a timer that already fired is a no-op.
    if (policy().timeout.ns > 0) eng().cancel_event(timer_);
    Reply<Resp>& r = reply();
    std::int64_t pause_ns = 0;
    if (!r.value()) {
      // Cumulative counts drive the exhaustion caps; the *consecutive*
      // streak per error class drives the escalating backoff shift. A
      // timeout after a run of backpressure bounces (or vice versa) is a
      // fresh condition.
      if (++timeouts_ >= policy().max_attempts) {
        give_up(" timed out after retries");
        return;
      }
      ++rpc().stats_.retries;
      const int shift = bump(timeout_streak_);
      reject_streak_ = 0;
      // The lost attempt may still be answered: the next one waits on a
      // fresh slot.
      request_.reply = std::make_shared<Reply<Resp>>();
      if (policy().backoff.ns <= 0) {
        send();
        return;
      }
      // Exponential backoff: backoff, 2*backoff, 4*backoff, ...
      pause_ns = policy().backoff.ns << shift;
    } else if (retry_later(*r.value())) {
      // Memory-governor backpressure: the server answered but refused
      // admission. Not a timeout — wait out the pressure with an
      // escalating backoff, without consuming timeout attempts. The
      // answered slot carries the re-send.
      if (++rejections_ > policy().max_backpressure_retries) {
        give_up(" rejected by memory governor after retries");
        return;
      }
      ++rpc().stats_.backpressure_waits;
      const int shift = bump(reject_streak_);
      timeout_streak_ = 0;
      r.reset();
      const std::int64_t base = policy().backoff.ns > 0
                                    ? policy().backoff.ns
                                    : kBackpressureBackoff.ns;
      pause_ns = base << shift;
    } else {
      ++rpc().stats_.responses;
      batch_->ended();
      return;
    }
    if (tok() != nullptr && tok()->cancelled()) {
      fail(std::make_exception_ptr(sim::Cancelled{}));
      return;
    }
    timer_ = eng().schedule_fire(sim::Duration{pause_ns}, *this, kBackedOff);
    wait_ = Wait::kBackoff;
    if (tok() != nullptr) tok()->add(this);
  }
  /// Extends an error streak and returns its backoff shift (streak - 1,
  /// capped at 16).
  static int bump(std::uint8_t& streak) {
    if (streak <= 16) ++streak;
    return streak - 1;
  }

  void on_cancel() override {
    if (sending()) {
      Transfer::on_cancel();
      return;
    }
    if (wait_ == Wait::kReply) {
      reply().unwait();
      eng().schedule_fire({0}, *this, kUnwindReply);
    } else {
      eng().cancel_event(timer_);
      eng().schedule_fire({0}, *this, kUnwindBackoff);
    }
    wait_ = Wait::kNone;
  }
  void unwind_reply_wait() {
    if (policy().timeout.ns > 0) eng().cancel_event(timer_);
    fail(std::make_exception_ptr(sim::Cancelled{}));
  }

  void give_up(const char* why) {
    try {
      rpc().give_up(dst(), request_, why);
    } catch (...) {
      fail(std::current_exception());
    }
  }
  void fail(std::exception_ptr error) {
    failed_ = true;
    batch_->failures_.emplace_back(index(), std::move(error));
    batch_->ended();
  }

  Batch<Req>* batch_;
  /// Retained across attempts. Its reply handle stays null while the
  /// call is answered in slot_ (a handle to slot_ would keep the batch
  /// alive from inside it); after a timeout it holds the fresh slot.
  Req request_;
  Reply<Resp> slot_;
  int timeouts_ = 0;
  int rejections_ = 0;
  std::uint8_t timeout_streak_ = 0;
  std::uint8_t reject_streak_ = 0;
  Wait wait_ = Wait::kNone;
  bool failed_ = false;
};

/// The state a fan-out's calls share: the slots in one array, the count
/// still in flight and the event the frame waits on. Reply slots handed
/// to servers alias it, so it lives until the last of the frame (or its
/// FanOut), the calls and the servers holding a slot lets go.
template <class Req>
class Rpc::Batch : public std::enable_shared_from_this<Batch<Req>> {
 public:
  Batch(Rpc& rpc, sim::Ctx ctx, RetryPolicy policy, std::size_t capacity)
      : rpc_(&rpc),
        ctx_(ctx),
        policy_(policy),
        // Raw storage: a slot is neither copyable nor movable.
        slots_(std::allocator<Call<Req>>().allocate(capacity)),
        capacity_(capacity),
        done_(*ctx.eng) {}
  Batch(const Batch&) = delete;
  Batch& operator=(const Batch&) = delete;
  ~Batch() {
    for (std::size_t i = 0; i < size_; ++i) slots_[i].~Call();
    std::allocator<Call<Req>>().deallocate(slots_, capacity_);
  }

  /// Appends a call (at most `capacity` of them).
  void add(EndpointId dst, Req request) {
    ::new (static_cast<void*>(slots_ + size_))
        Call<Req>(*this, dst, std::move(request));
    ++size_;
    ++pending_;
  }

 private:
  friend class Rpc;
  friend class Call<Req>;
  friend class Hold<Req>;
  friend class CallAwaiter<Req>;
  friend class FanOut<Req>;

  void schedule_starts() {
    for (std::size_t i = 0; i < size_; ++i) {
      ctx_.eng->schedule_fire({0}, slots_[i], Call<Req>::kStart);
    }
  }

  /// A call ended. The last one wakes the frame — or resumes the awaiting
  /// frame of a single call() in place, or frees an abandoned batch.
  void ended() {
    if (--pending_ > 0) return;
    if (direct_) {
      std::exchange(direct_, {}).resume();
      return;
    }
    done_.set();
    std::shared_ptr<Batch> last = std::move(keep_);
  }

  Rpc* rpc_;
  sim::Ctx ctx_;
  RetryPolicy policy_;
  Call<Req>* slots_;
  std::size_t capacity_;
  std::size_t size_ = 0;
  std::size_t pending_ = 0;
  /// Failed calls in the order they failed, with their errors.
  std::vector<std::pair<std::size_t, std::exception_ptr>> failures_;
  sim::OneShotEvent done_;
  std::coroutine_handle<> direct_;  // a single call() awaiting in place
  std::shared_ptr<Batch> keep_;     // set once the starter has gone
};

/// What call_all() returns: every call's outcome, read in place from the
/// fan-out's slots, which it keeps until it is dropped.
template <class Req>
class FanOut {
 public:
  using Resp = typename Req::Response;

  [[nodiscard]] std::size_t size() const { return batch_->size_; }
  [[nodiscard]] const Req& request(std::size_t i) const {
    return batch_->slots_[i].request();
  }
  /// The i-th call's response; null when the call failed.
  [[nodiscard]] Resp* response(std::size_t i) const {
    return batch_->slots_[i].response();
  }
  /// The failed calls' indices and errors, in the order they failed.
  [[nodiscard]] const std::vector<std::pair<std::size_t, std::exception_ptr>>&
  failures() const {
    return batch_->failures_;
  }
  /// Rethrows the first failure, if any call failed.
  void rethrow_first() const {
    if (!failures().empty()) std::rethrow_exception(failures()[0].second);
  }

 private:
  friend class Rpc;
  explicit FanOut(std::shared_ptr<Rpc::Batch<Req>> batch)
      : batch_(std::move(batch)) {}

  std::shared_ptr<Rpc::Batch<Req>> batch_;
};

template <class Req>
class [[nodiscard]] Rpc::CallAwaiter {
 public:
  using Resp = typename Req::Response;

  explicit CallAwaiter(std::shared_ptr<Batch<Req>> batch)
      : hold_(std::move(batch)) {}

  /// The call starts when awaited, in the awaiting frame's dispatch.
  bool await_ready() {
    hold_->slots_[0].begin();
    return hold_->pending_ == 0;
  }
  void await_suspend(std::coroutine_handle<> h) { hold_->direct_ = h; }
  Resp await_resume() {
    if (!hold_->failures_.empty()) {
      std::rethrow_exception(hold_->failures_[0].second);
    }
    return std::move(*hold_->slots_[0].response());
  }

 private:
  Hold<Req> hold_;
};

template <class Req>
Rpc::CallAwaiter<Req> Rpc::call(sim::Ctx ctx, EndpointId dst, Req request,
                                RetryPolicy policy) {
  auto batch = std::make_shared<Batch<Req>>(*this, ctx, policy, 1);
  batch->add(dst, std::move(request));
  return CallAwaiter<Req>(std::move(batch));
}

}  // namespace dstage::net
