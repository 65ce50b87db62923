// Single-threaded discrete-event engine. Coroutine handles, plain
// callbacks and state-machine wake-ups are scheduled at virtual times; ties
// are broken by insertion order so runs are fully deterministic.
//
// Hot-path layout: the heap holds 32-byte POD items (no std::function, no
// per-pop copies), ordered by (at.ns, id) in a hand-rolled binary heap.
// Callbacks live in pooled, type-erased call frames — an intrusive
// freelist of slab-allocated frames with inline storage and a trampoline
// pointer — so scheduling a lambda costs no allocation once the pool is
// warm. Dispatch order is bit-identical to the historical
// priority_queue<Item> formulation: golden trace digests must not move.
#pragma once

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <type_traits>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "sim/time.hpp"

namespace dstage::sim {

/// Identifier of a scheduled item, usable with cancel_event().
using EventId = std::uint64_t;

/// A plain state machine the engine fires directly: each wake-up is one
/// heap item carrying a step tag, with no call frame and no callable. A
/// cancelled item never fires, so the object need outlive only its live
/// items.
class Wake {
 public:
  virtual void fire(std::uint32_t step) = 0;

 protected:
  ~Wake() = default;
};

class Engine {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;
  ~Engine();

  [[nodiscard]] TimePoint now() const { return now_; }

  /// Resume `h` after `d` of virtual time (d >= 0).
  EventId schedule(Duration d, std::coroutine_handle<> h);
  /// Resume `h` at the current virtual time, after already-queued items.
  EventId schedule_now(std::coroutine_handle<> h) { return schedule({0}, h); }

  /// Run `fn` after `d` of virtual time. Any callable; captures up to
  /// CallFrame::kInlineBytes are stored in-place in a pooled frame,
  /// larger ones fall back to one heap box.
  template <class F>
  EventId schedule_call(Duration d, F&& fn) {
    check_delay(d);
    CallFrame* frame = frame_for(std::forward<F>(fn));
    return enqueue(Item{now_.ns + d.ns, next_id_++, frame, 0, Kind::kFrame});
  }

  /// Fire `target` with `step` after `d` of virtual time.
  EventId schedule_fire(Duration d, Wake& target, std::uint32_t step) {
    check_delay(d);
    return enqueue(Item{now_.ns + d.ns, next_id_++, &target, step,
                        Kind::kWake});
  }

  /// Drop a not-yet-fired item. A no-op on an id that already fired, was
  /// already cancelled, or was never issued.
  void cancel_event(EventId id);

  /// Process events until the queue drains. Returns number processed.
  std::uint64_t run();
  /// Process events with time <= limit; clock ends at min(limit, last event).
  std::uint64_t run_until(TimePoint limit);
  /// Process a single event if one exists; returns false on empty queue.
  bool step();

  [[nodiscard]] bool empty() const { return live_items_ == 0; }
  [[nodiscard]] std::uint64_t processed() const { return processed_; }

 private:
  /// Type-erased callback slot. Frames are pooled: slab-allocated, reused
  /// through an intrusive freelist, and never individually freed.
  struct CallFrame {
    static constexpr std::size_t kInlineBytes = 64;
    /// Moves the callable out of `storage`, destroys the stored copy, and
    /// invokes it — in that order, so the frame can be recycled before the
    /// callback runs (a callback may legally schedule into this engine).
    void (*invoke)(CallFrame*, Engine*) = nullptr;
    /// Destroys the stored callable without invoking (cancel/teardown).
    void (*discard)(CallFrame*) = nullptr;
    CallFrame* next_free = nullptr;
    alignas(std::max_align_t) unsigned char storage[kInlineBytes];
  };

  enum class Kind : std::uint8_t { kHandle, kFrame, kWake };
  /// POD heap entry; trivially copyable, 32 bytes.
  struct Item {
    std::int64_t at_ns;
    EventId id;
    void* target;  // coroutine handle address, CallFrame* or Wake*
    std::uint32_t step;  // kWake only
    Kind kind;
  };
  static_assert(sizeof(Item) == 32);
  static bool later(const Item& a, const Item& b) {
    if (a.at_ns != b.at_ns) return a.at_ns > b.at_ns;
    return a.id > b.id;
  }

  static void check_delay(Duration d);

  template <class F>
  CallFrame* frame_for(F&& fn) {
    using Fn = std::decay_t<F>;
    CallFrame* frame = alloc_frame();
    if constexpr (sizeof(Fn) <= CallFrame::kInlineBytes &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(frame->storage)) Fn(std::forward<F>(fn));
      frame->invoke = [](CallFrame* f, Engine* eng) {
        Fn* stored = std::launder(reinterpret_cast<Fn*>(f->storage));
        Fn local(std::move(*stored));
        stored->~Fn();
        eng->recycle_frame(f);
        local();
      };
      frame->discard = [](CallFrame* f) {
        std::launder(reinterpret_cast<Fn*>(f->storage))->~Fn();
      };
    } else {
      // Oversized or throwing-move callable: one heap box, pointer inline.
      auto* boxed = new Fn(std::forward<F>(fn));
      ::new (static_cast<void*>(frame->storage)) Fn*(boxed);
      frame->invoke = [](CallFrame* f, Engine* eng) {
        Fn* stored = *std::launder(reinterpret_cast<Fn**>(f->storage));
        eng->recycle_frame(f);
        (*stored)();
        delete stored;
      };
      frame->discard = [](CallFrame* f) {
        delete *std::launder(reinterpret_cast<Fn**>(f->storage));
      };
    }
    return frame;
  }

  CallFrame* alloc_frame();
  void recycle_frame(CallFrame* frame) {
    frame->next_free = free_frames_;
    free_frames_ = frame;
  }

  EventId enqueue(const Item& item) {
    push_item(item);
    // Ids are issued in order: a new id's word is at most one past the end.
    const std::size_t word = (item.id >> 6) - queued_base_;
    if (word == queued_.size()) queued_.push_back(0);
    queued_[word] |= std::uint64_t{1} << (item.id & 63);
    ++live_items_;
    return item.id;
  }
  void push_item(const Item& item);
  Item pop_min();
  /// Pops the top item if it was cancelled (discarding its callable).
  bool drop_cancelled_top();
  bool pop_one(Item& out);
  void dispatch(const Item& item);

  // Queued ids as one bit each over a window of 64-id words: set when an
  // item is queued, cleared when it pops or is cancelled. A popped item
  // whose bit is clear was cancelled (lazy deletion), and cancelling an id
  // whose bit is clear changes nothing. Leading words with no queued id are
  // dropped once they make up half the window (checked when a pop empties
  // a word).
  [[nodiscard]] bool is_queued(EventId id) const;
  bool clear_queued(EventId id);
  void drop_fired_words();

  TimePoint now_{};
  EventId next_id_ = 1;
  std::uint64_t processed_ = 0;
  std::uint64_t live_items_ = 0;
  std::uint64_t cancelled_items_ = 0;  // cancelled, still in the heap
  std::vector<Item> heap_;  // binary min-heap on (at_ns, id)
  std::vector<std::uint64_t> queued_;  // word i covers ids 64*(base_ + i)...
  std::uint64_t queued_base_ = 0;
  std::size_t queued_zero_ = 0;  // leading words of queued_ known to be 0
  CallFrame* free_frames_ = nullptr;
  std::vector<std::unique_ptr<CallFrame[]>> slabs_;
};

}  // namespace dstage::sim
