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
#pragma once

#include <cstddef>

namespace dstage::sim {

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
