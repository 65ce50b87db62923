#include "sim/engine.hpp"

#include <cassert>
#include <stdexcept>

#include "sim/frame_pool.hpp"

namespace dstage::sim {

namespace {
constexpr std::size_t kSlabFrames = 1024;
/// Fired words are dropped from the queued-id window only past this many,
/// so a short run never shifts the window.
constexpr std::size_t kMinDroppedWords = 1024;
}  // namespace

Engine::~Engine() {
  // Frames still queued hold live callables; cancelled ones were already
  // discarded at pop-skip time or are still queued too (lazy deletion
  // only clears the id's bit). Either way, every frame left in the heap
  // owns its callable exactly once.
  for (const Item& item : heap_) {
    if (item.kind == Kind::kFrame) {
      auto* frame = static_cast<CallFrame*>(item.target);
      frame->discard(frame);
    }
  }
  // Hand the thread's cached coroutine frames back: the next engine built
  // on this thread then reuses the freed pages rather than faulting in new
  // ones while the pool sits on this run's frames. Live frames are untouched.
  FramePool::trim();
}

void Engine::check_delay(Duration d) {
  if (d.ns < 0) throw std::invalid_argument("negative delay");
}

Engine::CallFrame* Engine::alloc_frame() {
  if (free_frames_ == nullptr) {
    slabs_.push_back(std::make_unique<CallFrame[]>(kSlabFrames));
    CallFrame* slab = slabs_.back().get();
    for (std::size_t i = 0; i < kSlabFrames; ++i) {
      slab[i].next_free = free_frames_;
      free_frames_ = &slab[i];
    }
  }
  CallFrame* frame = free_frames_;
  free_frames_ = frame->next_free;
  return frame;
}

void Engine::push_item(const Item& item) {
  // Hole insertion: shift ancestors down and write the item once, rather
  // than swapping 32-byte entries at every level.
  std::size_t i = heap_.size();
  heap_.push_back(item);
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!later(heap_[parent], item)) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = item;
}

EventId Engine::schedule(Duration d, std::coroutine_handle<> h) {
  check_delay(d);
  return enqueue(Item{now_.ns + d.ns, next_id_++, h.address(), 0,
                      Kind::kHandle});
}

bool Engine::is_queued(EventId id) const {
  // A dropped word held no queued id; ids past the window were never issued.
  if ((id >> 6) < queued_base_) return false;
  const std::size_t word = (id >> 6) - queued_base_;
  return word < queued_.size() && ((queued_[word] >> (id & 63)) & 1) != 0;
}

bool Engine::clear_queued(EventId id) {
  if (!is_queued(id)) return false;
  queued_[(id >> 6) - queued_base_] &= ~(std::uint64_t{1} << (id & 63));
  return true;
}

void Engine::drop_fired_words() {
  // A word can be dropped once every id it covers has been issued and none
  // is still queued.
  const std::size_t issued = (next_id_ >> 6) - queued_base_;
  while (queued_zero_ < issued && queued_[queued_zero_] == 0) ++queued_zero_;
  if (queued_zero_ < kMinDroppedWords || 2 * queued_zero_ < queued_.size())
    return;
  queued_.erase(queued_.begin(),
                queued_.begin() + static_cast<std::ptrdiff_t>(queued_zero_));
  queued_base_ += queued_zero_;
  queued_zero_ = 0;
}

void Engine::cancel_event(EventId id) {
  // Lazy deletion: the item stays in the heap and is skipped when popped.
  if (!clear_queued(id)) return;
  --live_items_;
  ++cancelled_items_;
}

Engine::Item Engine::pop_min() {
  const Item top = heap_.front();
  // Pop-min with a hole: sift the last leaf's slot down from the root,
  // writing it exactly once at its final position.
  const Item last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n > 0) {
    std::size_t i = 0;
    while (true) {
      const std::size_t l = 2 * i + 1;
      if (l >= n) break;
      const std::size_t r = l + 1;
      const std::size_t best = (r < n && later(heap_[l], heap_[r])) ? r : l;
      if (!later(last, heap_[best])) break;
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = last;
  }
  return top;
}

bool Engine::drop_cancelled_top() {
  if (cancelled_items_ == 0 || is_queued(heap_.front().id)) return false;
  const Item dead = pop_min();
  --cancelled_items_;
  if (dead.kind == Kind::kFrame) {
    auto* frame = static_cast<CallFrame*>(dead.target);
    frame->discard(frame);
    recycle_frame(frame);
  }
  return true;
}

bool Engine::pop_one(Item& out) {
  while (!heap_.empty()) {
    if (drop_cancelled_top()) continue;
    out = pop_min();
    std::uint64_t& word = queued_[(out.id >> 6) - queued_base_];
    word &= ~(std::uint64_t{1} << (out.id & 63));
    if (word == 0) drop_fired_words();
    --live_items_;
    return true;
  }
  return false;
}

void Engine::dispatch(const Item& item) {
  assert(item.at_ns >= now_.ns);
  now_.ns = item.at_ns;
  ++processed_;
  switch (item.kind) {
    case Kind::kHandle:
      std::coroutine_handle<>::from_address(item.target).resume();
      break;
    case Kind::kFrame: {
      auto* frame = static_cast<CallFrame*>(item.target);
      frame->invoke(frame, this);
      break;
    }
    case Kind::kWake:
      static_cast<Wake*>(item.target)->fire(item.step);
      break;
  }
}

std::uint64_t Engine::run() {
  std::uint64_t n = 0;
  Item item;
  while (pop_one(item)) {
    dispatch(item);
    ++n;
  }
  return n;
}

std::uint64_t Engine::run_until(TimePoint limit) {
  std::uint64_t n = 0;
  Item item;
  // Peek-first: cancelled items up to the limit are dropped, and a live
  // top beyond the limit is never popped.
  while (!heap_.empty() && heap_.front().at_ns <= limit.ns) {
    if (drop_cancelled_top()) continue;
    pop_one(item);
    dispatch(item);
    ++n;
  }
  if (now_ < limit) now_ = limit;
  return n;
}

bool Engine::step() {
  Item item;
  if (!pop_one(item)) return false;
  dispatch(item);
  return true;
}

}  // namespace dstage::sim
