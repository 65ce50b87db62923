// Unified RPC transport over the fabric. One Rpc per endpoint owner
// (staging client or server) routes every message — typed request/response
// calls, one-way sends, and response fulfilment — through the codec, and
// owns the timeout/retry/backoff loop that used to be re-implemented by
// every caller.
//
// Frame budget: a call is one coroutine frame (call_impl) for its whole
// life, plus the fabric's one frame per send while that send is on the
// NIC; send() and fulfill() are plain functions returning the fabric's
// task, and reply waits are awaiters on the call's own frame.
//
// GCC 12 note: every coroutine is reached through a plain function that
// materializes caller temporaries into named parameters and moves them —
// xvalues — across the coroutine boundary (GCC 12 double-destroys
// *prvalue* arguments bound to by-value coroutine parameters). GCC 12 also
// gives every temporary in a coroutine body its own frame slot, so the
// per-attempt message copy and the exhaustion error are built in plain
// helpers (send_attempt, give_up), not in call_impl. Keep it that way when
// adding entry points.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <utility>

#include "net/fabric.hpp"
#include "net/message.hpp"
#include "sim/context.hpp"
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
  std::uint64_t calls = 0;      // call<Req>() invocations
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

class Rpc {
 public:
  Rpc(Fabric& fabric, EndpointId self) : fabric_(&fabric), self_(self) {}

  [[nodiscard]] EndpointId self() const { return self_; }
  [[nodiscard]] const RpcStats& stats() const { return stats_; }

  /// Install a check that every call runs on its destination and request
  /// when it starts and again before it throws for exhausted retries; the
  /// check throws to fail the call with its own error.
  void set_peer_check(
      std::function<void(EndpointId, const Message&)> check) {
    peer_check_ = std::move(check);
  }

  /// One-way message: pays send-side transport, no response expected.
  sim::Task<void> send(sim::Ctx ctx, EndpointId dst, Message message) {
    ++stats_.oneways;
    return fabric_->send(ctx, self_, dst, std::move(message));
  }

  /// Typed request/response call. Fills in the request's reply slot (a
  /// fresh one per attempt, so a late response to a lost attempt cannot
  /// satisfy a retry), sends, and waits per `policy`. Throws
  /// std::runtime_error when every attempt times out.
  template <class Req>
  sim::Task<typename Req::Response> call(sim::Ctx ctx, EndpointId dst,
                                         Req request,
                                         RetryPolicy policy = {}) {
    Message message{std::move(request)};
    return call_impl<Req>(ctx, dst, std::move(message), policy);
  }

  /// Server side: pay response transport for `value` (codec-sized), then
  /// fulfill the client's reply slot after the wire latency. Responses up
  /// to kControlPathBytes ride the control path; larger ones pay NIC
  /// bandwidth like any bulk send.
  template <class Resp>
  sim::Task<void> fulfill(sim::Ctx ctx, EndpointId dst, ReplyPtr<Resp> reply,
                          Resp value) {
    const std::uint64_t bytes = wire_size(value);
    auto deliver = [reply = std::move(reply), v = std::move(value)]() mutable {
      reply->fulfill(std::move(v));
    };
    if (bytes <= kControlPathBytes) {
      // Small acks are RDMA completion notifications: control path only.
      return fabric_->notify(ctx, self_, dst, std::move(deliver));
    }
    return fabric_->transmit(ctx, self_, dst, bytes, std::move(deliver));
  }

 private:
  /// Arms the kept request with a fresh reply slot (returned through
  /// `reply`) and sends one copy of it.
  template <class Req>
  sim::Task<void> send_attempt(sim::Ctx ctx, EndpointId dst, Message& request,
                               ReplyPtr<typename Req::Response>& reply) {
    reply = make_reply<typename Req::Response>(*ctx.eng);
    Req& req = std::get<Req>(request);
    req.reply_to = self_;
    req.reply = reply;
    return fabric_->send(ctx, self_, dst, Message{request});
  }

  void check_peer(EndpointId dst, const Message& request) const {
    if (peer_check_) peer_check_(dst, request);
  }
  /// Counts an exhausted call, runs the peer check, then throws
  /// "rpc <name> <why>".
  [[noreturn]] void give_up(EndpointId dst, const Message& request,
                            const char* why);

  template <class Req>
  sim::Task<typename Req::Response> call_impl(sim::Ctx ctx, EndpointId dst,
                                              Message request,
                                              RetryPolicy policy) {
    check_peer(dst, request);
    ++stats_.calls;
    // Cumulative counts drive the exhaustion caps; the *consecutive* streak
    // per error class drives the escalating backoff shift. A timeout after
    // a run of backpressure bounces (or vice versa) is a fresh condition —
    // carrying the other class's escalation over would jump straight to a
    // huge delay for a failure mode that has struck once.
    int timeouts = 0;
    int rejections = 0;
    int timeout_streak = 0;
    int reject_streak = 0;
    ReplyPtr<typename Req::Response> reply;
    for (;;) {
      // The request is retained across attempts; each send carries a copy.
      co_await send_attempt<Req>(ctx, dst, request, reply);
      std::optional<typename Req::Response> value =
          co_await reply->take_for(ctx, policy.timeout);
      if (value && !retry_later(*value)) {
        ++stats_.responses;
        co_return std::move(*value);
      }
      std::int64_t pause_ns = 0;
      if (!value) {
        if (++timeouts >= policy.max_attempts) {
          give_up(dst, request, " timed out after retries");
        }
        ++stats_.retries;
        ++timeout_streak;
        reject_streak = 0;
        if (policy.backoff.ns <= 0) continue;
        // Exponential backoff: backoff, 2*backoff, 4*backoff, ...
        const int shift = timeout_streak - 1 < 16 ? timeout_streak - 1 : 16;
        pause_ns = policy.backoff.ns << shift;
      } else {
        // Memory-governor backpressure: the server answered but refused
        // admission. Not a timeout — wait out the pressure with an
        // escalating backoff, without consuming timeout attempts.
        if (++rejections > policy.max_backpressure_retries) {
          give_up(dst, request, " rejected by memory governor after retries");
        }
        ++stats_.backpressure_waits;
        ++reject_streak;
        timeout_streak = 0;
        const std::int64_t base = policy.backoff.ns > 0
                                      ? policy.backoff.ns
                                      : kBackpressureBackoff.ns;
        const int shift = reject_streak - 1 < 16 ? reject_streak - 1 : 16;
        pause_ns = base << shift;
      }
      co_await ctx.delay(sim::Duration{pause_ns});
    }
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

}  // namespace dstage::net
