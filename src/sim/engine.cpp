#include "sim/engine.hpp"

#include <cassert>
#include <stdexcept>

#include "sim/frame_pool.hpp"

namespace dstage::sim {

namespace {
constexpr std::size_t kSlabFrames = 1024;
}  // namespace

Engine::~Engine() {
  // Frames still queued hold live callables; cancelled ones were already
  // discarded at pop-skip time or are still queued too (lazy deletion
  // only marks the id). Either way, every frame left in the heap owns its
  // callable exactly once.
  for (const Item& item : heap_) {
    if (item.is_frame) {
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
  const EventId id = next_id_++;
  push_item(Item{now_.ns + d.ns, id, h.address(), /*is_frame=*/false});
  ++live_items_;
  return id;
}

void Engine::cancel_event(EventId id) {
  if (id == 0 || id >= next_id_) return;
  // Lazy deletion: remember the id and skip it when popped.
  if (dead_.insert(id).second && live_items_ > 0) --live_items_;
}

bool Engine::pop_one(Item& out) {
  while (!heap_.empty()) {
    out = heap_.front();
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
        const std::size_t best =
            (r < n && later(heap_[l], heap_[r])) ? r : l;
        if (!later(last, heap_[best])) break;
        heap_[i] = heap_[best];
        i = best;
      }
      heap_[i] = last;
    }
    if (!dead_.empty()) {
      if (auto it = dead_.find(out.id); it != dead_.end()) {
        dead_.erase(it);
        if (out.is_frame) {
          auto* frame = static_cast<CallFrame*>(out.target);
          frame->discard(frame);
          recycle_frame(frame);
        }
        continue;
      }
    }
    --live_items_;
    return true;
  }
  return false;
}

void Engine::dispatch(const Item& item) {
  assert(item.at_ns >= now_.ns);
  now_.ns = item.at_ns;
  ++processed_;
  if (item.is_frame) {
    auto* frame = static_cast<CallFrame*>(item.target);
    frame->invoke(frame, this);
  } else {
    std::coroutine_handle<>::from_address(item.target).resume();
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
  // Peek-first: dead items at the top are drained by pop_one, and a live
  // top beyond the limit is simply never popped (the historical code
  // popped and re-pushed it).
  while (!heap_.empty() && heap_.front().at_ns <= limit.ns) {
    if (!pop_one(item)) break;
    if (item.at_ns > limit.ns) {
      // pop_one skipped dead items and surfaced one beyond the limit; put
      // it back untouched.
      push_item(item);
      ++live_items_;
      break;
    }
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
