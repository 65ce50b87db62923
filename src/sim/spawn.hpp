// Root-process management: spawn() launches a Task<void> as an independent
// simulated process, and when_all() fans subtasks out in *parallel virtual
// time* (sequentially awaiting tasks would serialize their delays).
#pragma once

#include <coroutine>
#include <exception>
#include <functional>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/cancel.hpp"
#include "sim/context.hpp"
#include "sim/engine.hpp"
#include "sim/event.hpp"
#include "sim/frame_pool.hpp"
#include "sim/task.hpp"

namespace dstage::sim {

namespace detail {

/// Self-destroying root coroutine: final_suspend never suspends, so the
/// frame (and the Task it owns) is freed when the process finishes.
struct RootCoro {
  struct promise_type : PooledFrame {
    RootCoro get_return_object() {
      return RootCoro{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    [[nodiscard]] std::suspend_always initial_suspend() const noexcept {
      return {};
    }
    [[nodiscard]] std::suspend_never final_suspend() const noexcept {
      return {};
    }
    void return_void() {}
    void unhandled_exception() { std::terminate(); }  // run_root catches all
  };
  std::coroutine_handle<promise_type> handle;
};

inline RootCoro run_root(Task<void> task,
                         std::function<void(std::exception_ptr)> on_done) {
  std::exception_ptr error;
  try {
    co_await std::move(task);
  } catch (...) {
    error = std::current_exception();
  }
  if (on_done) on_done(error);
}

}  // namespace detail

/// Launch `task` as an independent process at the current virtual time.
/// `on_done` (optional) runs when the task finishes; a process killed via
/// its CancelToken completes with a Cancelled exception_ptr.
///
/// Lifetime caution: a coroutine created from a *temporary capturing lambda*
/// dangles (the frame references the destroyed closure). Pass the lambda
/// itself to the factory overload below instead of invoking it inline.
inline void spawn(Engine& eng, Task<void> task,
                  std::function<void(std::exception_ptr)> on_done = {}) {
  auto root = detail::run_root(std::move(task), std::move(on_done));
  eng.schedule_now(root.handle);
}

namespace detail {

template <class F>
RootCoro run_root_factory(F factory,
                          std::function<void(std::exception_ptr)> on_done) {
  // `factory` lives in this root frame, so the child coroutine's references
  // to the closure's captures stay valid for the child's whole lifetime.
  std::exception_ptr error;
  try {
    co_await factory();
  } catch (...) {
    error = std::current_exception();
  }
  if (on_done) on_done(error);
}

}  // namespace detail

/// Launch a process from a callable returning Task<void>. The callable (and
/// therefore its captures) is kept alive until the process finishes — the
/// safe way to spawn a capturing lambda coroutine.
template <class F>
  requires std::is_invocable_r_v<Task<void>, F&>
void spawn(Engine& eng, F factory,
           std::function<void(std::exception_ptr)> on_done = {}) {
  auto root =
      detail::run_root_factory(std::move(factory), std::move(on_done));
  eng.schedule_now(root.handle);
}

namespace detail {

template <class T>
struct WhenAllState {
  explicit WhenAllState(Engine& eng, std::size_t n)
      : done(eng), results(n), count(n) {}
  OneShotEvent done;
  std::vector<T> results;
  std::size_t count;
  std::exception_ptr first_error;
};

struct WhenAllVoidState {
  explicit WhenAllVoidState(Engine& eng, std::size_t n)
      : done(eng), count(n) {}
  OneShotEvent done;
  std::size_t count;
  std::exception_ptr first_error;
};

/// One when_all child: a self-destroying root frame that awaits `task`
/// (the child's own frame, reached by symmetric transfer) and reports to
/// the shared state. Never throws: a child's failure is recorded.
template <class State, class T>
RootCoro when_all_child(std::shared_ptr<State> state, std::size_t idx,
                        Task<T> task) {
  try {
    if constexpr (std::is_void_v<T>) {
      co_await std::move(task);
    } else {
      state->results[idx] = co_await std::move(task);
    }
  } catch (...) {
    if (!state->first_error) state->first_error = std::current_exception();
  }
  if (--state->count == 0) state->done.set();
}

}  // namespace detail

/// Run all tasks concurrently (in virtual time); completes when every child
/// has completed. Rethrows the first child failure, after all finish. The
/// children share the caller's token indirectly: awaits inside them should
/// use the same Ctx, so killing the process unwinds children too. A child
/// costs one root frame beside its own task's frame.
template <class T>
Task<std::vector<T>> when_all(Ctx ctx, std::vector<Task<T>> tasks) {
  auto state =
      std::make_shared<detail::WhenAllState<T>>(*ctx.eng, tasks.size());
  if (tasks.empty()) co_return std::move(state->results);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    ctx.eng->schedule_now(
        detail::when_all_child<detail::WhenAllState<T>, T>(
            state, i, std::move(tasks[i]))
            .handle);
  }
  co_await state->done.wait(ctx.tok);
  if (state->first_error) std::rethrow_exception(state->first_error);
  co_return std::move(state->results);
}

inline Task<void> when_all(Ctx ctx, std::vector<Task<void>> tasks) {
  auto state =
      std::make_shared<detail::WhenAllVoidState>(*ctx.eng, tasks.size());
  if (tasks.empty()) co_return;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    ctx.eng->schedule_now(
        detail::when_all_child<detail::WhenAllVoidState, void>(
            state, i, std::move(tasks[i]))
            .handle);
  }
  co_await state->done.wait(ctx.tok);
  if (state->first_error) std::rethrow_exception(state->first_error);
}

}  // namespace dstage::sim
