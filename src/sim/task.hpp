// Lazy coroutine task with symmetric transfer. Task<T> is the return type of
// every simulated activity; awaiting a task runs it to completion in virtual
// time and yields its value (or rethrows its exception, which is how
// Cancelled propagates out of a killed process).
#pragma once

#include <coroutine>
#include <exception>
#include <utility>
#include <variant>

#include "sim/frame_pool.hpp"

namespace dstage::sim {

template <class T>
class [[nodiscard]] Task;

namespace detail {

template <class T>
struct TaskPromiseBase : PooledFrame {
  std::coroutine_handle<> continuation;

  struct FinalAwaiter {
    [[nodiscard]] bool await_ready() const noexcept { return false; }
    template <class Promise>
    std::coroutine_handle<> await_suspend(
        std::coroutine_handle<Promise> h) noexcept {
      auto cont = h.promise().continuation;
      return cont ? cont : std::noop_coroutine();
    }
    void await_resume() const noexcept {}
  };

  [[nodiscard]] std::suspend_always initial_suspend() const noexcept {
    return {};
  }
  [[nodiscard]] FinalAwaiter final_suspend() const noexcept { return {}; }
};

}  // namespace detail

/// Move-only owner of a lazily started coroutine.
template <class T>
class [[nodiscard]] Task {
 public:
  struct promise_type : detail::TaskPromiseBase<T> {
    std::variant<std::monostate, T, std::exception_ptr> result;

    Task get_return_object() {
      return Task{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    template <class U>
    void return_value(U&& v) {
      result.template emplace<1>(std::forward<U>(v));
    }
    void unhandled_exception() {
      result.template emplace<2>(std::current_exception());
    }
  };

  Task() = default;
  Task(Task&& other) noexcept : coro_(std::exchange(other.coro_, nullptr)) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      coro_ = std::exchange(other.coro_, nullptr);
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  [[nodiscard]] bool valid() const { return coro_ != nullptr; }
  [[nodiscard]] bool done() const { return coro_ && coro_.done(); }

  // Awaiter interface: starting the child via symmetric transfer.
  [[nodiscard]] bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> awaiting) {
    coro_.promise().continuation = awaiting;
    return coro_;
  }
  T await_resume() {
    auto& r = coro_.promise().result;
    if (r.index() == 2) std::rethrow_exception(std::get<2>(r));
    return std::move(std::get<1>(r));
  }

  /// Raw handle, for Engine::spawn-style drivers.
  [[nodiscard]] std::coroutine_handle<promise_type> handle() const {
    return coro_;
  }
  /// Releases ownership (caller must destroy the frame).
  std::coroutine_handle<promise_type> release() {
    return std::exchange(coro_, nullptr);
  }

 private:
  explicit Task(std::coroutine_handle<promise_type> h) : coro_(h) {}
  void destroy() {
    if (coro_) {
      coro_.destroy();
      coro_ = nullptr;
    }
  }

  std::coroutine_handle<promise_type> coro_;
};

template <>
class [[nodiscard]] Task<void> {
 public:
  struct promise_type : detail::TaskPromiseBase<void> {
    std::exception_ptr error;

    Task get_return_object() {
      return Task{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    void return_void() {}
    void unhandled_exception() { error = std::current_exception(); }
  };

  Task() = default;
  Task(Task&& other) noexcept : coro_(std::exchange(other.coro_, nullptr)) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      coro_ = std::exchange(other.coro_, nullptr);
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  [[nodiscard]] bool valid() const { return coro_ != nullptr; }
  [[nodiscard]] bool done() const { return coro_ && coro_.done(); }

  [[nodiscard]] bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> awaiting) {
    coro_.promise().continuation = awaiting;
    return coro_;
  }
  void await_resume() {
    if (coro_.promise().error) std::rethrow_exception(coro_.promise().error);
  }

  [[nodiscard]] std::coroutine_handle<promise_type> handle() const {
    return coro_;
  }
  std::coroutine_handle<promise_type> release() {
    return std::exchange(coro_, nullptr);
  }

 private:
  explicit Task(std::coroutine_handle<promise_type> h) : coro_(h) {}
  void destroy() {
    if (coro_) {
      coro_.destroy();
      coro_ = nullptr;
    }
  }

  std::coroutine_handle<promise_type> coro_;
};

}  // namespace dstage::sim
