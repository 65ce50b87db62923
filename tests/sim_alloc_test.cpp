// The allocation-free message-path primitives: the coroutine frame pool,
// the vector ring behind Channel, and the vector waiter lists of
// OneShotEvent and Barrier. Reuse must never change who wakes when.
#include <gtest/gtest.h>

#include <thread>
#include <utility>
#include <vector>

#include "sim/channel.hpp"
#include "sim/context.hpp"
#include "sim/engine.hpp"
#include "sim/event.hpp"
#include "sim/frame_pool.hpp"
#include "sim/spawn.hpp"
#include "sim/task.hpp"

namespace dstage::sim {
namespace {

Task<int> leaf(int v) { co_return v + 1; }

Task<int> nested(int depth) {
  if (depth == 0) co_return 0;
  co_return co_await leaf(co_await nested(depth - 1));
}

TEST(FramePoolTest, SizeClassesReuseFreedFrames) {
  FramePool::trim();
  void* a = FramePool::allocate(100);
  FramePool::deallocate(a, 100);
  EXPECT_EQ(FramePool::cached(), 1u);
  // 100 and 120 bytes share the 128-byte class: the cached frame comes back.
  void* b = FramePool::allocate(120);
  EXPECT_EQ(b, a);
  EXPECT_EQ(FramePool::cached(), 0u);
  // A different class does not take it.
  FramePool::deallocate(b, 120);
  void* c = FramePool::allocate(200);
  EXPECT_NE(c, b);
  EXPECT_EQ(FramePool::cached(), 1u);
  FramePool::deallocate(c, 200);
  FramePool::trim();
  EXPECT_EQ(FramePool::cached(), 0u);
}

TEST(FramePoolTest, OversizeFramesBypassThePool) {
  FramePool::trim();
  void* big = FramePool::allocate(FramePool::kMaxBytes + 1);
  FramePool::deallocate(big, FramePool::kMaxBytes + 1);
  EXPECT_EQ(FramePool::cached(), 0u);
  void* edge = FramePool::allocate(FramePool::kMaxBytes);
  FramePool::deallocate(edge, FramePool::kMaxBytes);
  EXPECT_EQ(FramePool::cached(), 1u);
  FramePool::trim();
}

TEST(FramePoolTest, TaskFramesComeFromThePool) {
  FramePool::trim();
  { Task<int> t = leaf(1); }  // created and destroyed without running
  EXPECT_EQ(FramePool::cached(), 1u);
  Task<int> again = leaf(2);
  EXPECT_EQ(FramePool::cached(), 0u);
  int got = 0;
  {
    Engine eng;
    spawn(eng, [&]() -> Task<void> { got = co_await nested(8); });
    eng.run();
  }
  EXPECT_EQ(got, 8);
  // ~Engine trimmed the cache; the still-live `again` frame is untouched.
  EXPECT_EQ(FramePool::cached(), 0u);
  EXPECT_FALSE(again.done());
}

TEST(FramePoolTest, TrimLeavesLiveFramesRunning) {
  Engine eng;
  OneShotEvent go(eng);
  std::vector<int> results;
  for (int i = 0; i < 4; ++i) {
    spawn(eng, [&, i]() -> Task<void> {
      co_await go.wait(nullptr);
      results.push_back(co_await nested(i));
    });
  }
  eng.run();  // every process is now suspended on `go`
  {
    Engine scratch;  // its destructor trims this thread's cache
  }
  FramePool::trim();
  EXPECT_EQ(FramePool::cached(), 0u);
  go.set();
  eng.run();
  EXPECT_EQ(results, (std::vector<int>{0, 1, 2, 3}));
}

TEST(FramePoolTest, FrameFreedOnAnotherThreadIsCachedThere) {
  FramePool::trim();
  Task<int> task = leaf(41);
  std::size_t worker_cached = 0;
  std::thread worker([&] {
    FramePool::trim();
    task = Task<int>{};  // destroys the frame on this thread
    worker_cached = FramePool::cached();
    // Reuse works on the worker too; the rest is freed at thread exit.
    Engine eng;
    int got = 0;
    spawn(eng, [&]() -> Task<void> { got = co_await leaf(41); });
    eng.run();
    EXPECT_EQ(got, 42);
  });
  worker.join();
  EXPECT_EQ(worker_cached, 1u);
  EXPECT_EQ(FramePool::cached(), 0u);
}

TEST(ChannelRingTest, FifoAcrossDrainAndCompaction) {
  Engine eng;
  Channel<int> ch(eng);
  std::vector<int> got;
  spawn(eng, [&]() -> Task<void> {
    // Drain completely (the ring resets), then refill.
    for (int i = 0; i < 3; ++i) ch.send(i);
    for (int i = 0; i < 3; ++i) got.push_back(co_await ch.recv(nullptr));
    EXPECT_TRUE(ch.empty());
    for (int i = 3; i < 103; ++i) ch.send(i);
    // Consume past the compaction point while more arrives behind.
    for (int i = 0; i < 70; ++i) got.push_back(co_await ch.recv(nullptr));
    for (int i = 103; i < 150; ++i) ch.send(i);
    EXPECT_EQ(ch.size(), 77u);
    while (!ch.empty()) got.push_back(co_await ch.recv(nullptr));
  });
  eng.run();
  ASSERT_EQ(got.size(), 150u);
  for (int i = 0; i < 150; ++i) EXPECT_EQ(got[static_cast<std::size_t>(i)], i);
}

TEST(ChannelRingTest, CancelledReceiverLeavesTheMiddle) {
  Engine eng;
  Channel<int> ch(eng);
  CancelToken toks[4];
  std::vector<std::pair<int, int>> got;  // (receiver, value); -1 = cancelled
  for (int round = 0; round < 2; ++round) {
    for (int r = 0; r < 4; ++r) {
      spawn(eng, [&, r]() -> Task<void> {
        try {
          got.emplace_back(r, co_await ch.recv(&toks[r]));
        } catch (const Cancelled&) {
          got.emplace_back(r, -1);
        }
      });
    }
    eng.run();
    ASSERT_EQ(ch.waiting_receivers(), 4u);
    toks[1].cancel();
    eng.run();
    EXPECT_EQ(ch.waiting_receivers(), 3u);
    ch.send(10 * round + 1);
    ch.send(10 * round + 2);
    ch.send(10 * round + 3);
    eng.run();
    EXPECT_EQ(ch.waiting_receivers(), 0u);
    toks[1].reset();
  }
  const std::vector<std::pair<int, int>> want = {
      {1, -1}, {0, 1}, {2, 2}, {3, 3}, {1, -1}, {0, 11}, {2, 12}, {3, 13}};
  EXPECT_EQ(got, want);
}

TEST(WaiterListTest, OneShotEventWakesInRegistrationOrder) {
  Engine eng;
  OneShotEvent ev(eng);
  CancelToken doomed;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    spawn(eng, [&, i]() -> Task<void> {
      try {
        co_await ev.wait(i == 2 ? &doomed : nullptr);
        order.push_back(i);
      } catch (const Cancelled&) {
        order.push_back(-i);
      }
    });
  }
  eng.run();
  doomed.cancel();
  eng.run();
  ev.set();
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{-2, 0, 1, 3, 4}));
}

TEST(WaiterListTest, BarrierReleasesInArrivalOrderEveryGeneration) {
  Engine eng;
  Barrier barrier(eng, 3);
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) {
    spawn(eng, [&, i]() -> Task<void> {
      for (int gen = 0; gen < 2; ++gen) {
        co_await barrier.arrive_and_wait(nullptr);
        order.push_back(10 * gen + i);
      }
    });
  }
  eng.run();
  // The last arrival passes without suspending; the others wake in the
  // order they arrived.
  EXPECT_EQ(order, (std::vector<int>{2, 0, 1, 11, 12, 10}));
}

}  // namespace
}  // namespace dstage::sim
