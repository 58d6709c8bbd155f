// Unit tests for the discrete-event simulation core.
#include <gtest/gtest.h>

#include <vector>

#include "sim/engine.h"
#include "sim/event_queue.h"

namespace venn::sim {
namespace {

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(3.0, [&] { order.push_back(3); });
  q.schedule(1.0, [&] { order.push_back(1); });
  q.schedule(2.0, [&] { order.push_back(2); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(q.now(), 3.0);
}

TEST(EventQueue, TiesBreakFifo) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(1.0, [&] { order.push_back(1); });
  q.schedule(1.0, [&] { order.push_back(2); });
  q.schedule(1.0, [&] { order.push_back(3); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, RejectsPastScheduling) {
  EventQueue q;
  q.schedule(5.0, [] {});
  q.run();
  EXPECT_THROW(q.schedule(1.0, [] {}), std::invalid_argument);
  EXPECT_THROW(q.schedule_after(-1.0, [] {}), std::invalid_argument);
}

TEST(EventQueue, CallbackCanScheduleMore) {
  EventQueue q;
  int fired = 0;
  q.schedule(1.0, [&] {
    ++fired;
    q.schedule(2.0, [&] { ++fired; });
  });
  q.run();
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(q.now(), 2.0);
}

TEST(EventQueue, RunUntilStopsAtBoundary) {
  EventQueue q;
  std::vector<double> fired;
  for (double t : {1.0, 2.0, 3.0, 4.0}) {
    q.schedule(t, [&fired, t] { fired.push_back(t); });
  }
  q.run_until(2.5);
  EXPECT_EQ(fired.size(), 2u);
  EXPECT_EQ(q.pending(), 2u);
  q.run_until(10.0);
  EXPECT_EQ(fired.size(), 4u);
}

TEST(EventQueue, NextTimeIsEarliestPending) {
  EventQueue q;
  q.schedule(2.0, [] {});
  q.schedule(1.0, [] {});
  q.schedule(3.0, [] {});
  const auto t = q.next_time();
  ASSERT_TRUE(t.has_value());
  EXPECT_DOUBLE_EQ(*t, 1.0);
  q.step();
  EXPECT_DOUBLE_EQ(*q.next_time(), 2.0);
}

TEST(EventQueue, EmptyAfterDrain) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  q.schedule(1.0, [] {});
  EXPECT_FALSE(q.empty());
  q.run();
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.next_time().has_value());
}

TEST(EventQueue, ReservedSeqOrdersAsIfScheduledEagerly) {
  // Eager: A and C are scheduled first, B after them, all at t=5; the
  // sequence numbers break the tie A, C, B.
  std::vector<char> eager;
  {
    EventQueue q;
    q.schedule(5.0, [&] { eager.push_back('A'); });
    q.schedule(5.0, [&] { eager.push_back('C'); });
    q.schedule(1.0, [] {});
    q.schedule(5.0, [&] { eager.push_back('B'); });
    q.run();
  }
  // Reserved: A takes its number eagerly, C's is reserved up front but C
  // enters the heap only at t=1, after B was scheduled.
  std::vector<char> lazy;
  {
    EventQueue q;
    q.schedule(5.0, [&] { lazy.push_back('A'); });
    const std::uint64_t c = q.reserve_seqs(1);
    q.schedule(1.0, [&] {
      q.schedule_reserved(5.0, c, [&] { lazy.push_back('C'); });
    });
    q.schedule(5.0, [&] { lazy.push_back('B'); });
    EXPECT_EQ(q.pending(), 3u);
    q.run();
    EXPECT_EQ(q.executed(), 4u);
  }
  EXPECT_EQ(lazy, (std::vector<char>{'A', 'C', 'B'}));
  EXPECT_EQ(lazy, eager);
}

TEST(EventQueue, ScheduleReservedRejectsPastTimeAndUnreservedSeq) {
  EventQueue q;
  const std::uint64_t first = q.reserve_seqs(2);
  q.schedule(10.0, [] {});
  q.run();
  EXPECT_THROW(q.schedule_reserved(9.0, first, [] {}), std::invalid_argument);
  EXPECT_THROW(q.schedule_reserved(11.0, first + 3, [] {}),
               std::invalid_argument);
  q.schedule_reserved(10.0, first + 1, [] {});
  EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueue, PeakPendingIsTheHighWaterMark) {
  EventQueue q;
  EXPECT_EQ(q.peak_pending(), 0u);
  for (int i = 0; i < 5; ++i) q.schedule(static_cast<double>(i), [] {});
  q.run();
  q.schedule(10.0, [] {});
  q.run();
  EXPECT_EQ(q.peak_pending(), 5u);
}

TEST(Engine, PeriodicTaskStopsOnFalse) {
  Engine e(1);
  int ticks = 0;
  e.every(1.0, [&] { return ++ticks < 3; });
  e.run_until(100.0);
  EXPECT_EQ(ticks, 3);
  EXPECT_DOUBLE_EQ(e.now(), 3.0);
}

TEST(Engine, PeriodicRejectsNonPositive) {
  Engine e(1);
  EXPECT_THROW(e.every(0.0, [] { return true; }), std::invalid_argument);
}

TEST(Engine, EventBudgetGuardsLivelock) {
  Engine e(1);
  e.set_event_budget(100);
  // Self-perpetuating event chain: must trip the budget, not hang.
  std::function<void()> loop = [&] { e.after(1.0, loop); };
  e.after(1.0, loop);
  EXPECT_THROW(e.run_until(1e18), std::runtime_error);
}

TEST(Engine, RunUntilDoesNotExecutePastBoundary) {
  Engine e(1);
  int fired = 0;
  e.at(5.0, [&] { ++fired; });
  e.run_until(4.0);
  EXPECT_EQ(fired, 0);
  e.run_until(5.0);
  EXPECT_EQ(fired, 1);
}

TEST(Engine, RngIsSeedDeterministic) {
  Engine a(99), b(99);
  EXPECT_DOUBLE_EQ(a.rng().uniform(), b.rng().uniform());
}

// Property: interleaving N events with random times always executes them in
// nondecreasing time order, regardless of insertion order.
class EventOrderTest : public ::testing::TestWithParam<int> {};

TEST_P(EventOrderTest, AlwaysTimeOrdered) {
  Rng rng(GetParam());
  EventQueue q;
  std::vector<double> fired;
  for (int i = 0; i < 200; ++i) {
    const double t = rng.uniform(0.0, 100.0);
    q.schedule(t, [&fired, t] { fired.push_back(t); });
  }
  q.run();
  for (std::size_t i = 1; i < fired.size(); ++i) {
    EXPECT_LE(fired[i - 1], fired[i]);
  }
  EXPECT_EQ(fired.size(), 200u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventOrderTest, ::testing::Range(1, 6));

TEST(Engine, StreamDrivesLazySequence) {
  Engine e(1);
  std::vector<SimTime> fired;
  int remaining = 5;
  e.stream(10.0, [&]() -> std::optional<SimTime> {
    fired.push_back(e.now());
    if (--remaining == 0) return std::nullopt;
    return e.now() + 10.0;
  });
  e.run_until(1000.0);
  EXPECT_EQ(fired, (std::vector<SimTime>{10.0, 20.0, 30.0, 40.0, 50.0}));
}

TEST(Engine, StreamClampsPastTimesToNow) {
  Engine e(1);
  std::vector<SimTime> fired;
  e.at(5.0, [] {});
  bool first = true;
  e.stream(3.0, [&]() -> std::optional<SimTime> {
    fired.push_back(e.now());
    if (!first) return std::nullopt;
    first = false;
    return 1.0;  // in the past: fires at now() instead
  });
  e.run_until(1000.0);
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_DOUBLE_EQ(fired[0], 3.0);
  EXPECT_DOUBLE_EQ(fired[1], 3.0);
}

TEST(Engine, StreamWithNulloptFirstIsNoop) {
  Engine e(1);
  e.stream(std::nullopt, []() -> std::optional<SimTime> {
    ADD_FAILURE() << "must not fire";
    return std::nullopt;
  });
  e.run_until(1000.0);
  EXPECT_EQ(e.events_executed(), 0u);
}

}  // namespace
}  // namespace venn::sim
