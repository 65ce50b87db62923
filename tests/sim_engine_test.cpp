#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace dstage::sim {
namespace {

TEST(EngineTest, StartsAtTimeZeroAndEmpty) {
  Engine eng;
  EXPECT_EQ(eng.now().ns, 0);
  EXPECT_TRUE(eng.empty());
  EXPECT_FALSE(eng.step());
}

TEST(EngineTest, CallbacksRunInTimeOrder) {
  Engine eng;
  std::vector<int> order;
  eng.schedule_call(seconds(3), [&] { order.push_back(3); });
  eng.schedule_call(seconds(1), [&] { order.push_back(1); });
  eng.schedule_call(seconds(2), [&] { order.push_back(2); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(eng.now(), TimePoint{} + seconds(3));
}

TEST(EngineTest, TiesBreakByInsertionOrder) {
  Engine eng;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    eng.schedule_call(seconds(1), [&order, i] { order.push_back(i); });
  }
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EngineTest, NestedSchedulingFromCallback) {
  Engine eng;
  std::vector<int> order;
  eng.schedule_call(seconds(1), [&] {
    order.push_back(1);
    eng.schedule_call(seconds(1), [&] { order.push_back(2); });
  });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(eng.now(), TimePoint{} + seconds(2));
}

TEST(EngineTest, CancelEventSuppressesCallback) {
  Engine eng;
  bool ran = false;
  EventId id = eng.schedule_call(seconds(1), [&] { ran = true; });
  eng.cancel_event(id);
  eng.run();
  EXPECT_FALSE(ran);
  EXPECT_TRUE(eng.empty());
}

TEST(EngineTest, CancelAlreadyFiredIsSafe) {
  Engine eng;
  EventId id = eng.schedule_call(seconds(1), [] {});
  eng.run();
  eng.cancel_event(id);  // no crash, no effect
  EXPECT_TRUE(eng.empty());
}

TEST(EngineTest, CancelFiredIdLeavesQueuedItemsLive) {
  // Regression: cancelling an id that already fired used to count as
  // dropping a queued item, so empty() turned true while the t=5 item was
  // still queued.
  Engine eng;
  std::vector<int> order;
  const EventId fired = eng.schedule_call(seconds(1), [&] { order.push_back(1); });
  eng.schedule_call(seconds(5), [&] { order.push_back(5); });
  eng.run_until(TimePoint{} + seconds(2));
  eng.cancel_event(fired);
  EXPECT_FALSE(eng.empty());
  eng.cancel_event(fired);  // twice is no different
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 5}));
  EXPECT_TRUE(eng.empty());
}

TEST(EngineTest, CancelledIdsAcrossManyWordsStayExact) {
  // Thousands of items, every third cancelled before it fires and every
  // fifth cancelled again after: only the cancelled ones are skipped, and
  // the queue drains to empty.
  Engine eng;
  constexpr int kItems = 200000;
  std::vector<EventId> ids;
  int ran = 0;
  for (int i = 0; i < kItems; ++i) {
    ids.push_back(eng.schedule_call(Duration{i}, [&] { ++ran; }));
  }
  for (int i = 0; i < kItems; i += 3) eng.cancel_event(ids[i]);
  eng.run_until(TimePoint{} + Duration{kItems / 2});
  for (int i = 0; i < kItems / 2; i += 5) eng.cancel_event(ids[i]);
  EXPECT_FALSE(eng.empty());
  eng.run();
  EXPECT_EQ(ran, kItems - (kItems + 2) / 3);
  EXPECT_TRUE(eng.empty());
}

TEST(EngineTest, CancelUnknownIdIsSafe) {
  Engine eng;
  eng.cancel_event(0);
  eng.cancel_event(999);
  EXPECT_TRUE(eng.empty());
}

TEST(EngineTest, RunUntilStopsAtLimit) {
  Engine eng;
  std::vector<int> order;
  eng.schedule_call(seconds(1), [&] { order.push_back(1); });
  eng.schedule_call(seconds(5), [&] { order.push_back(5); });
  const auto n = eng.run_until(TimePoint{} + seconds(3));
  EXPECT_EQ(n, 1u);
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(eng.now(), TimePoint{} + seconds(3));
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 5}));
}

TEST(EngineTest, RunUntilWithOnlyDeadItemsBeyondLimit) {
  Engine eng;
  bool ran = false;
  eng.schedule_call(seconds(1), [] {});          // dead, below limit
  EventId dead = eng.schedule_call(seconds(2), [&] { ran = true; });
  eng.cancel_event(dead);
  eng.schedule_call(seconds(10), [] {});  // beyond the limit
  eng.run_until(TimePoint{} + seconds(5));
  EXPECT_FALSE(ran);
  EXPECT_FALSE(eng.empty());  // the t=10 item survives
  eng.run();
  EXPECT_TRUE(eng.empty());
}

TEST(EngineTest, NegativeDelayRejected) {
  Engine eng;
  EXPECT_THROW(eng.schedule_call(Duration{-1}, [] {}), std::invalid_argument);
}

TEST(EngineTest, ProcessedCountsEvents) {
  Engine eng;
  for (int i = 0; i < 10; ++i) eng.schedule_call(seconds(i), [] {});
  eng.run();
  EXPECT_EQ(eng.processed(), 10u);
}

TEST(EngineTest, ZeroDelayRunsAtCurrentTime) {
  Engine eng;
  TimePoint seen{.ns = -1};
  eng.schedule_call(seconds(2), [&] {
    eng.schedule_call(Duration{0}, [&] { seen = eng.now(); });
  });
  eng.run();
  EXPECT_EQ(seen, TimePoint{} + seconds(2));
}

TEST(TimeTest, Conversions) {
  EXPECT_EQ(seconds(2).ns, 2'000'000'000);
  EXPECT_EQ(milliseconds(3).ns, 3'000'000);
  EXPECT_EQ(microseconds(5).ns, 5'000);
  EXPECT_DOUBLE_EQ(from_seconds(1.5).seconds(), 1.5);
  EXPECT_EQ(from_seconds(1e-9).ns, 1);
  EXPECT_EQ((seconds(1) + milliseconds(500)).ns, 1'500'000'000);
  EXPECT_EQ((seconds(2) * 3).ns, 6'000'000'000);
  EXPECT_LT(seconds(1), seconds(2));
}

}  // namespace
}  // namespace dstage::sim
