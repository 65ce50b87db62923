#include "sim/frame_pool.hpp"

#include <new>

#if defined(__SANITIZE_ADDRESS__)
#define DSTAGE_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define DSTAGE_ASAN 1
#endif
#endif

#ifdef DSTAGE_ASAN
#include <sanitizer/asan_interface.h>
#define DSTAGE_POISON(p, n) ASAN_POISON_MEMORY_REGION(p, n)
#define DSTAGE_UNPOISON(p, n) ASAN_UNPOISON_MEMORY_REGION(p, n)
#else
#define DSTAGE_POISON(p, n) ((void)(p), (void)(n))
#define DSTAGE_UNPOISON(p, n) ((void)(p), (void)(n))
#endif

namespace dstage::sim {

namespace {

struct FreeFrame {
  FreeFrame* next;
};

// Trivially destructible, so a frame freed during thread teardown (after
// the reaper below has run) still has a valid list to land on.
struct Cache {
  FreeFrame* head[FramePool::kClasses];
  std::size_t count;
  FrameCounts frames;
};
thread_local Cache tl_cache{};

// Returns the thread's cached frames when it exits. Armed the first time a
// list goes from empty to non-empty, which precedes any frame being cached.
struct Reaper {
  bool armed = false;
  ~Reaper() { FramePool::trim(); }
};
thread_local Reaper tl_reaper;

constexpr std::size_t class_of(std::size_t bytes) {
  return (bytes + FramePool::kClassBytes - 1) / FramePool::kClassBytes - 1;
}
constexpr std::size_t class_bytes(std::size_t cls) {
  return (cls + 1) * FramePool::kClassBytes;
}

}  // namespace

void* FramePool::allocate(std::size_t bytes) {
  FrameCounts& frames = tl_cache.frames;
  ++frames.allocated;
  if (++frames.live > frames.peak) frames.peak = frames.live;
  if (bytes == 0 || bytes > kMaxBytes) return ::operator new(bytes);
  const std::size_t cls = class_of(bytes);
  FreeFrame* frame = tl_cache.head[cls];
  if (frame == nullptr) return ::operator new(class_bytes(cls));
  DSTAGE_UNPOISON(frame, class_bytes(cls));
  tl_cache.head[cls] = frame->next;
  --tl_cache.count;
  return frame;
}

void FramePool::deallocate(void* frame, std::size_t bytes) noexcept {
  --tl_cache.frames.live;
  if (bytes == 0 || bytes > kMaxBytes) {
    ::operator delete(frame);
    return;
  }
  const std::size_t cls = class_of(bytes);
  if (tl_cache.head[cls] == nullptr) tl_reaper.armed = true;
  auto* node = static_cast<FreeFrame*>(frame);
  node->next = tl_cache.head[cls];
  tl_cache.head[cls] = node;
  ++tl_cache.count;
  DSTAGE_POISON(frame, class_bytes(cls));
}

void FramePool::trim() noexcept {
  for (std::size_t cls = 0; cls < kClasses; ++cls) {
    FreeFrame* frame = tl_cache.head[cls];
    while (frame != nullptr) {
      DSTAGE_UNPOISON(frame, class_bytes(cls));
      FreeFrame* next = frame->next;
      ::operator delete(frame);
      frame = next;
    }
    tl_cache.head[cls] = nullptr;
  }
  tl_cache.count = 0;
}

std::size_t FramePool::cached() noexcept { return tl_cache.count; }

FrameCounts FramePool::counts() noexcept { return tl_cache.frames; }

void FramePool::reset_counts() noexcept {
  tl_cache.frames.allocated = 0;
  tl_cache.frames.peak = tl_cache.frames.live;
}

}  // namespace dstage::sim
