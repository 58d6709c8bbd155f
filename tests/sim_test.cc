// Unit tests for the discrete-event simulation core.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <optional>
#include <random>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "sim/engine.h"
#include "sim/event_queue.h"

namespace venn::sim {
namespace {

// Records the typed events it runs.
struct Recorder final : EventHandler {
  std::vector<std::tuple<EventKind, std::uint32_t, std::uint32_t>> seen;
  void on_event(EventKind kind, std::uint32_t dev,
                std::uint32_t payload) override {
    seen.emplace_back(kind, dev, payload);
  }
};


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
  // C is a typed event; the closures log into the same recorder.
  std::vector<char> lazy;
  {
    EventQueue q;
    Recorder r;
    q.set_handler(&r);
    q.schedule(5.0, [&] { r.on_event(kClosure, 'A', 0); });
    const std::uint64_t c = q.reserve_seqs(1);
    q.schedule(1.0, [&] { q.schedule_reserved(5.0, c, 1, 'C'); });
    q.schedule(5.0, [&] { r.on_event(kClosure, 'B', 0); });
    EXPECT_EQ(q.pending(), 3u);
    q.run();
    EXPECT_EQ(q.executed(), 4u);
    for (const auto& [kind, dev, payload] : r.seen) {
      lazy.push_back(static_cast<char>(dev));
    }
  }
  EXPECT_EQ(lazy, (std::vector<char>{'A', 'C', 'B'}));
  EXPECT_EQ(lazy, eager);
}

TEST(EventQueue, ScheduleReservedRejectsPastTimeAndUnreservedSeq) {
  EventQueue q;
  Recorder r;
  q.set_handler(&r);
  const std::uint64_t first = q.reserve_seqs(2);
  q.schedule(10.0, [] {});
  q.run();
  EXPECT_THROW(q.schedule_reserved(9.0, first, 1, 0), std::invalid_argument);
  EXPECT_THROW(q.schedule_reserved(11.0, first + 3, 1, 0),
               std::invalid_argument);
  q.schedule_reserved(10.0, first + 1, 1, 0);
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

TEST(Engine, EventBudgetGuardsLivelock) {
  Engine e(1);
  e.set_event_budget(100);
  // Self-perpetuating event chain: must trip the budget, not hang.
  std::function<void()> loop = [&] { e.at(e.now() + 1.0, loop); };
  e.at(1.0, loop);
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

// --- the presorted start lane ------------------------------------------------

// Per-device start lists fed to the queue through its lane, the way the
// coordinator feeds a fleet's session starts: a dense next-start column,
// refills that take each device's next start before the chunk end, and a
// successor inside the current chunk sent to the heap when its predecessor
// fires.
struct LaneFleet final : EventHandler {
  static constexpr EventKind kStart = 1;
  EventQueue& q;
  const std::vector<std::vector<SimTime>>& starts;
  std::function<void(std::uint32_t, std::uint32_t)> body;
  std::vector<std::uint64_t> base;
  std::vector<std::uint32_t> next_k;

  LaneFleet(EventQueue& queue, const std::vector<std::vector<SimTime>>& s,
            std::function<void(std::uint32_t, std::uint32_t)> b)
      : q(queue), starts(s), body(std::move(b)), next_k(s.size(), 0) {
    for (const auto& dev : starts) base.push_back(q.reserve_seqs(dev.size()));
    q.set_handler(this);
    q.set_lane([this](SimTime end, std::vector<LaneEvent>& out) {
                 return refill(end, out);
               },
               kStart);
  }
  SimTime start(std::uint32_t d, std::uint32_t k) const {
    return k < starts[d].size() ? starts[d][k]
                                : std::numeric_limits<SimTime>::infinity();
  }
  SimTime refill(SimTime end, std::vector<LaneEvent>& out) const {
    SimTime rest = std::numeric_limits<SimTime>::infinity();
    for (std::uint32_t d = 0; d < starts.size(); ++d) {
      const SimTime t = start(d, next_k[d]);
      if (t < end) {
        out.push_back({t, base[d] + next_k[d], d});
      } else {
        rest = std::min(rest, t);
      }
    }
    return rest;
  }
  void on_event(EventKind, std::uint32_t d, std::uint32_t) override {
    const std::uint32_t k = next_k[d]++;
    const SimTime t = start(d, k + 1);
    if (t < q.lane_end()) q.schedule_reserved(t, base[d] + k + 1, kStart, d);
    body(d, k);
  }
};

// The lane replays exactly the order eager scheduling gives the same
// starts: heap events before and after the starts' seqs tie with them at
// equal times, start callbacks schedule at now() and later, some hours
// hold no start, some devices start twice inside one chunk, and the run is
// driven by run_until stops landing exactly on chunk boundaries and event
// times, with events scheduled from outside at each stop.
//
// Seeds 1-60 put every time on a quarter-hour grid. Seeds 61-80 use a
// grid of 1/8 to 1/128 hour: the refill's counting pass splits a chunk
// into a power-of-two number of bins, so their starts sit on its exact bin
// edges, and their empty stretch ends off the hour grid, so the refill
// after the skip orders a chunk that starts there. Seeds 81-84 start more
// than 1,000 devices in the first hour: odd seeds on at most 128 distinct
// times (bins overflow, and the batch is comparison-sorted), even ones
// spread over 2,048 (about one per bin, finished by insertion), with
// same-time ties across devices in both.
TEST(EventQueue, LaneReplaysTheEagerOrder) {
  for (std::uint64_t seed = 1; seed <= 84; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const bool fine = seed > 60;
    const bool big = seed > 80;
    const int per_hour = fine ? 1 << (3 + seed % 5) : 4;
    const SimTime quantum = 3600.0 / per_hour;
    std::mt19937_64 rng(seed);
    auto grid = [&](int lo, int hi) {
      return quantum * std::uniform_int_distribution<int>(lo, hi)(rng);
    };
    // Starts on the grid (ties, chunk boundaries), none from hour 10 to
    // hour 20 plus `shift` quanta (an empty stretch), several per hour for
    // some devices.
    const int shift = fine ? 1 + static_cast<int>(seed) % (per_hour - 1) : 0;
    const SimTime gap_lo = quantum * (10 * per_hour);
    const SimTime gap_hi = quantum * (20 * per_hour + shift);
    const int devices = big ? std::uniform_int_distribution<int>(1100, 1400)(rng)
                            : std::uniform_int_distribution<int>(1, 24)(rng);
    std::vector<std::vector<SimTime>> starts(devices);
    for (auto& dev : starts) {
      const int n = std::uniform_int_distribution<int>(0, big ? 2 : 10)(rng);
      if (big) {
        const int slots = seed % 2 == 0 ? 2048 : per_hour;
        dev.push_back(3600.0 / slots *
                      std::uniform_int_distribution<int>(0, slots - 1)(rng));
      }
      for (int i = 0; i < n; ++i) {
        SimTime t = grid(0, 30 * per_hour);
        if (t >= gap_lo && t < gap_hi) t += gap_hi - gap_lo;
        dev.push_back(t);
      }
      std::sort(dev.begin(), dev.end());
      dev.erase(std::unique(dev.begin(), dev.end()), dev.end());
    }
    const int far = 130 * per_hour / 4;
    std::vector<SimTime> pre(std::uniform_int_distribution<int>(0, 12)(rng));
    std::vector<SimTime> post(std::uniform_int_distribution<int>(0, 12)(rng));
    for (SimTime& t : pre) t = grid(0, far);
    for (SimTime& t : post) t = grid(0, far);
    std::vector<SimTime> stops;
    for (int i = 0; i < 8; ++i) {
      stops.push_back(i % 2 == 0 ? 3600.0 * (i + 1) : grid(0, far));
    }
    std::sort(stops.begin(), stops.end());

    struct Trace {
      std::vector<std::tuple<SimTime, char, int, int>> order;
      std::vector<std::optional<SimTime>> next_at_stop;
      std::size_t max_pending = 0;
      std::size_t first_pending = 0;  // after the first next_time()
    };
    auto run = [&](bool lane) {
      Trace tr;
      EventQueue q;
      auto note = [&](char kind, int a, int b) {
        tr.order.emplace_back(q.now(), kind, a, b);
      };
      // Start side effects keyed by (device, session), identical on both
      // sides as long as the orders agree.
      auto body = [&](std::uint32_t d, std::uint32_t k) {
        note('S', static_cast<int>(d), static_cast<int>(k));
        const std::uint64_t h = (d * 7919u + k * 104729u + seed) % 15;
        if (h % 3 == 0) q.schedule(q.now(), [&, d, k] { note('N', d, k); });
        if (h % 5 == 0) {
          q.schedule(q.now() + 900.0 * static_cast<SimTime>(1 + h % 3),
                     [&, d, k] { note('L', d, k); });
        }
      };
      for (std::size_t i = 0; i < pre.size(); ++i) {
        q.schedule(pre[i], [&, i] {
          note('P', static_cast<int>(i), 0);
          if (i % 2 == 0) q.schedule(q.now(), [&, i] { note('Q', i, 0); });
        });
      }
      std::optional<LaneFleet> fleet;
      if (lane) {
        fleet.emplace(q, starts, body);
      } else {
        for (std::uint32_t d = 0; d < starts.size(); ++d) {
          for (std::uint32_t k = 0; k < starts[d].size(); ++k) {
            q.schedule(starts[d][k], [&body, d, k] { body(d, k); });
          }
        }
      }
      for (std::size_t i = 0; i < post.size(); ++i) {
        q.schedule(post[i], [&, i] { note('A', static_cast<int>(i), 0); });
      }
      (void)q.next_time();
      tr.first_pending = q.pending();
      for (std::size_t i = 0; i < stops.size(); ++i) {
        q.run_until(stops[i]);
        tr.max_pending = std::max(tr.max_pending, q.pending());
        tr.next_at_stop.push_back(q.next_time());
        if (stops[i] >= q.now()) {
          q.schedule(stops[i], [&, i] { note('X', static_cast<int>(i), 0); });
        }
      }
      q.run();
      EXPECT_TRUE(q.empty());
      EXPECT_EQ(q.executed(), tr.order.size());
      return tr;
    };
    const Trace eager = run(false);
    const Trace lane = run(true);
    EXPECT_EQ(lane.order, eager.order);
    EXPECT_EQ(lane.next_at_stop, eager.next_at_stop);
    EXPECT_LE(lane.max_pending, eager.max_pending);
    if (big) {  // the first refill alone ordered over 1,000 starts
      EXPECT_GT(lane.first_pending, 1000 + pre.size() + post.size());
    }
  }
}

TEST(EventQueue, LaneSkipsEmptyStretchesAndDrains) {
  EventQueue q;
  const std::vector<std::vector<SimTime>> starts{{10.0, 50'000.0},
                                                 {90'000.0}, {}};
  std::vector<SimTime> fired;
  LaneFleet fleet(q, starts, [&](std::uint32_t, std::uint32_t) {
    fired.push_back(q.now());
  });
  EXPECT_EQ(q.pending(), 0u);  // nothing is pulled before it is needed
  ASSERT_TRUE(q.next_time().has_value());
  EXPECT_DOUBLE_EQ(*q.next_time(), 10.0);
  EXPECT_EQ(q.pending(), 1u);  // one start in the first hour
  q.run();
  EXPECT_EQ(fired, (std::vector<SimTime>{10.0, 50'000.0, 90'000.0}));
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.executed(), 3u);
  EXPECT_EQ(q.peak_pending(), 1u);
}

TEST(EventQueue, LaneRejectsPastTimesAndUnreservedSeqs) {
  {
    EventQueue q;
    Recorder r;
    q.set_handler(&r);
    q.schedule(100.0, [] {});
    q.run();
    const std::uint64_t seq = q.reserve_seqs(1);
    q.set_lane(
        [seq](SimTime end, std::vector<LaneEvent>& out) {
          if (end > 100.0) out.push_back({50.0, seq, 0});
          return std::numeric_limits<SimTime>::infinity();
        },
        1);
    EXPECT_THROW(q.step(), std::invalid_argument);
  }
  {
    EventQueue q;
    Recorder r;
    q.set_handler(&r);
    q.set_lane(
        [](SimTime, std::vector<LaneEvent>& out) {
          out.push_back({1.0, 0, 0});  // seq 0 was never reserved
          return std::numeric_limits<SimTime>::infinity();
        },
        1);
    EXPECT_THROW(q.step(), std::invalid_argument);
    EXPECT_THROW(q.set_lane({}, 1), std::logic_error);
    EXPECT_THROW(q.set_handler(&r), std::logic_error);
  }
  {
    EventQueue q;  // an empty refill must report its earliest event honestly
    Recorder r;
    q.set_handler(&r);
    q.set_lane([](SimTime, std::vector<LaneEvent>&) { return 5.0; }, 1);
    EXPECT_THROW(q.step(), std::logic_error);
  }
  {
    EventQueue q;  // typed events need the handler first
    EXPECT_THROW(q.set_lane({}, 1), std::logic_error);
    EXPECT_THROW(q.schedule(1.0, 1, 0), std::logic_error);
  }
}

// The refill's counting pass keeps equal times in arrival order, so a
// refill must append in ascending seq: one that does not is rejected, and
// the error names the contract instead of replaying ties out of order.
TEST(EventQueue, LaneRejectsARefillOutOfSeqOrder) {
  EventQueue q;
  Recorder r;
  q.set_handler(&r);
  const std::uint64_t first = q.reserve_seqs(2);
  q.set_lane(
      [first](SimTime, std::vector<LaneEvent>& out) {
        out.push_back({5.0, first + 1, 1});
        out.push_back({5.0, first, 0});
        return std::numeric_limits<SimTime>::infinity();
      },
      1);
  try {
    q.step();
    ADD_FAILURE() << "an out-of-order refill was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("LaneRefill contract"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("ascending seq"), std::string::npos)
        << e.what();
  }
  EXPECT_TRUE(r.seen.empty());
}

// --- typed events and the closure slab ----------------------------------------

static_assert(std::is_trivially_copyable_v<Event>);
static_assert(sizeof(Event) <= 32);

// Closures and typed events share one (t, seq) order: at one time they run
// in the order they were scheduled, whatever their kind, and a typed event
// reaches the handler with its device and payload.
TEST(EventQueue, ClosuresAndTypedEventsRunInSeqOrder) {
  EventQueue q;
  Recorder r;  // closures log themselves into it as kind 0
  q.set_handler(&r);
  auto closure = [&](SimTime t, std::uint32_t id) {
    q.schedule(t, [&r, id] { r.on_event(kClosure, id, 0); });
  };
  closure(5.0, 0);
  q.schedule(5.0, 1, 10, 100);
  closure(5.0, 2);
  q.schedule(5.0, 2, 11, 0);
  q.schedule(5.0, 1, 12, 7);
  closure(5.0, 5);
  closure(4.0, 6);
  q.run();
  using Seen = std::tuple<EventKind, std::uint32_t, std::uint32_t>;
  EXPECT_EQ(r.seen, (std::vector<Seen>{{kClosure, 6, 0},
                                       {kClosure, 0, 0},
                                       {1, 10, 100},
                                       {kClosure, 2, 0},
                                       {2, 11, 0},
                                       {1, 12, 7},
                                       {kClosure, 5, 0}}));
}

// A closure that schedules closures hands its own slot back before it
// runs, so a chain of them keeps the slab at the size of the largest set
// pending at once, and the order is the eager one.
TEST(EventQueue, ClosureChainReusesFreedSlabSlots) {
  EventQueue q;
  std::vector<int> order;
  std::function<void(int)> spawn = [&](int i) {
    order.push_back(i);
    if (i >= 40) return;
    // Two children per event, one now and one later: the slot just freed
    // is taken by the first child.
    q.schedule(q.now(), [&, i] { spawn(2 * i + 1); });
    q.schedule(q.now() + 1.0, [&, i] { spawn(2 * i + 2); });
  };
  q.schedule(0.0, [&] { spawn(0); });
  q.run();
  EXPECT_EQ(q.closure_slots(), q.peak_pending());
  EXPECT_LT(q.closure_slots(), order.size());

  // The order the (t, seq) rule gives the same spawn tree.
  std::vector<std::tuple<SimTime, std::uint64_t, int>> eager;
  std::uint64_t seq = 0;
  std::vector<std::tuple<SimTime, std::uint64_t, int>> frontier{{0.0, seq++, 0}};
  while (!frontier.empty()) {
    const auto it = std::min_element(frontier.begin(), frontier.end());
    const auto [t, s, i] = *it;
    frontier.erase(it);
    eager.emplace_back(t, s, i);
    if (i >= 40) continue;
    frontier.emplace_back(t, seq++, 2 * i + 1);
    frontier.emplace_back(t + 1.0, seq++, 2 * i + 2);
  }
  std::vector<int> expected;
  for (const auto& e : eager) expected.push_back(std::get<2>(e));
  EXPECT_EQ(order, expected);
}

// A schedule rejected for a past time changes nothing: the next event
// still gets the next seq (so it ties in FIFO order with one scheduled
// before the rejection), pending() is unchanged, and no slab slot is
// taken.
TEST(EventQueue, RejectedScheduleConsumesNoSeq) {
  EventQueue q;
  Recorder r;
  q.set_handler(&r);
  q.schedule(10.0, [] {});
  q.step();
  std::vector<int> order;
  q.schedule(20.0, [&] { order.push_back(1); });
  const std::size_t pending = q.pending();
  const std::size_t slots = q.closure_slots();
  const std::uint64_t next = q.reserve_seqs(0);
  EXPECT_THROW(q.schedule(5.0, [&] { order.push_back(-1); }),
               std::invalid_argument);
  EXPECT_THROW(q.schedule(5.0, 1, 0), std::invalid_argument);
  EXPECT_THROW(q.schedule_reserved(5.0, next - 1, 1, 0),
               std::invalid_argument);
  EXPECT_EQ(q.pending(), pending);
  EXPECT_EQ(q.closure_slots(), slots);
  EXPECT_EQ(q.reserve_seqs(0), next);
  q.schedule(20.0, [&] { order.push_back(2); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_TRUE(r.seen.empty());
}

}  // namespace
}  // namespace venn::sim
