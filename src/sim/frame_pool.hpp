// Thread-local size-class pool for coroutine frames. Every Task and root
// process frame is drawn from here (promise-level operator new/delete), so
// the steady-state RPC path reuses frames instead of hitting malloc.
//
// Frames are binned into 64-byte classes up to kMaxBytes; larger frames go
// straight to ::operator new. A freed frame is cached on the *freeing*
// thread's list, so a frame created on one sweep worker and destroyed on
// another is safe. trim() returns the calling thread's cached frames to the
// system; live frames are never touched (a pmr pool's release() would free
// those too, which is why this is a hand-rolled freelist). Under
// AddressSanitizer cached frames are poisoned, so a use-after-free of a
// coroutine frame still reports through the same pool.
//
// Each thread also counts the frames it allocates and frees (oversized ones
// included): the frame budget of a request path is pinned by tests against
// these counters.
#pragma once

#include <cstddef>
#include <cstdint>

namespace dstage::sim {

/// One thread's frame counters. A frame freed on another thread than the
/// one that allocated it counts as live on the first and -1 on the second.
struct FrameCounts {
  std::uint64_t allocated = 0;  // frames allocated since the last reset
  std::int64_t live = 0;        // allocated minus freed
  std::int64_t peak = 0;        // highest `live` since the last reset
};

class FramePool {
 public:
  static constexpr std::size_t kClassBytes = 64;
  static constexpr std::size_t kClasses = 32;
  static constexpr std::size_t kMaxBytes = kClassBytes * kClasses;  // 2 KiB

  static void* allocate(std::size_t bytes);
  static void deallocate(void* frame, std::size_t bytes) noexcept;

  /// Free every frame cached on the calling thread. Called by ~Engine so a
  /// following build reuses the released pages instead of faulting in
  /// fresh ones while the pool sits on the previous pass's frames.
  static void trim() noexcept;

  /// Frames currently cached (free) on the calling thread.
  [[nodiscard]] static std::size_t cached() noexcept;

  /// The calling thread's frame counters.
  [[nodiscard]] static FrameCounts counts() noexcept;
  /// Zero the allocation count and restart the peak at the live count.
  static void reset_counts() noexcept;
};

/// Base of every coroutine promise type: the frame comes from the pool.
struct PooledFrame {
  static void* operator new(std::size_t bytes) {
    return FramePool::allocate(bytes);
  }
  static void operator delete(void* frame, std::size_t bytes) noexcept {
    FramePool::deallocate(frame, bytes);
  }
};

}  // namespace dstage::sim
