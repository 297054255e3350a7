// Unit tests for the discrete-event engine and coroutine tasks.
#include <gtest/gtest.h>

#include <vector>

#include "sim/event_queue.h"
#include "sim/random.h"
#include "sim/stats.h"
#include "sim/task.h"
#include "sim/time.h"

namespace dipc::sim {
namespace {

using Nanos = Duration;

TEST(Time, DurationArithmetic) {
  Duration a = Duration::Nanos(2.0);
  Duration b = Duration::Micros(1.0);
  EXPECT_EQ((a + b).nanos(), 1002.0);
  EXPECT_EQ((b - a).nanos(), 998.0);
  EXPECT_EQ((a * 3).nanos(), 6.0);
  EXPECT_LT(a, b);
  EXPECT_EQ(Duration::Seconds(1.0).picos(), 1'000'000'000'000LL);
}

TEST(Time, TimePlusDuration) {
  Time t = Time::Zero() + Duration::Nanos(5);
  EXPECT_EQ(t.nanos(), 5.0);
  EXPECT_EQ((t - Time::Zero()).nanos(), 5.0);
}

TEST(Time, SubNanosecondResolution) {
  // A 3.1 GHz cycle (~322.6 ps) must not round to zero.
  Duration cycle = Duration::Nanos(1.0 / 3.1);
  EXPECT_GT(cycle.picos(), 0);
  Duration sum = Duration::Zero();
  for (int i = 0; i < 31; ++i) {
    sum += cycle;
  }
  EXPECT_NEAR(sum.nanos(), 10.0, 0.02);  // 31 cycles; <=1 ps rounding per cycle
}

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.ScheduleAt(Time::Zero() + Duration::Nanos(30), [&] { order.push_back(3); });
  q.ScheduleAt(Time::Zero() + Duration::Nanos(10), [&] { order.push_back(1); });
  q.ScheduleAt(Time::Zero() + Duration::Nanos(20), [&] { order.push_back(2); });
  q.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now().nanos(), 30.0);
}

TEST(EventQueue, SameTimeIsFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    q.ScheduleAt(Time::Zero() + Duration::Nanos(5), [&order, i] { order.push_back(i); });
  }
  q.RunUntilIdle();
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(EventQueue, CancelPreventsFiring) {
  EventQueue q;
  int fired = 0;
  EventId id = q.ScheduleAfter(Duration::Nanos(10), [&] { ++fired; });
  EXPECT_TRUE(q.Cancel(id));
  EXPECT_FALSE(q.Cancel(id));  // double-cancel
  q.RunUntilIdle();
  EXPECT_EQ(fired, 0);
}

TEST(EventQueue, RunUntilAdvancesClockPastDrain) {
  EventQueue q;
  int fired = 0;
  q.ScheduleAfter(Duration::Nanos(10), [&] { ++fired; });
  q.RunUntil(Time::Zero() + Duration::Nanos(100));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.now().nanos(), 100.0);
}

TEST(EventQueue, RunUntilStopsAtDeadline) {
  EventQueue q;
  int fired = 0;
  q.ScheduleAfter(Duration::Nanos(10), [&] { ++fired; });
  q.ScheduleAfter(Duration::Nanos(200), [&] { ++fired; });
  q.RunUntil(Time::Zero() + Duration::Nanos(100));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueue, EventsCanScheduleEvents) {
  EventQueue q;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 5) {
      q.ScheduleAfter(Duration::Nanos(1), chain);
    }
  };
  q.ScheduleAfter(Duration::Nanos(1), chain);
  q.RunUntilIdle();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(q.now().nanos(), 5.0);
}

TEST(EventQueue, CancelAfterFireReturnsFalse) {
  EventQueue q;
  int fired = 0;
  EventId id = q.ScheduleAfter(Duration::Nanos(10), [&] { ++fired; });
  q.RunUntilIdle();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(q.Cancel(id));
  EXPECT_FALSE(q.Cancel(kInvalidEventId));
  EXPECT_EQ(q.pending(), 0u);
}

TEST(EventQueue, StaleIdCannotCancelReusedSlot) {
  EventQueue q;
  std::vector<int> fired;
  // Cancelled: the next schedule reuses its slot.
  EventId cancelled = q.ScheduleAfter(Duration::Nanos(10), [&] { fired.push_back(1); });
  ASSERT_TRUE(q.Cancel(cancelled));
  EventId second = q.ScheduleAfter(Duration::Nanos(10), [&] { fired.push_back(2); });
  EXPECT_NE(second, cancelled);
  EXPECT_FALSE(q.Cancel(cancelled));
  q.RunUntilIdle();
  EXPECT_EQ(fired, (std::vector<int>{2}));
  // Fired: the next schedule reuses its slot again.
  EventId third = q.ScheduleAfter(Duration::Nanos(10), [&] { fired.push_back(3); });
  EXPECT_FALSE(q.Cancel(second));
  EXPECT_FALSE(q.Cancel(cancelled));
  EXPECT_EQ(q.pending(), 1u);
  q.RunUntilIdle();
  EXPECT_EQ(fired, (std::vector<int>{2, 3}));
  EXPECT_FALSE(q.Cancel(third));
}

// Parks at its first suspension point; the resume records `tag`.
Task<void> RecordOnResume(std::vector<int>* order, int tag, std::coroutine_handle<>* parked) {
  co_await SuspendTo([parked](std::coroutine_handle<> h) { *parked = h; });
  order->push_back(tag);
}

TEST(EventQueue, SameTimeFifoAcrossSlotReuseAndMixedEntries) {
  EventQueue q;
  std::vector<int> order;
  // Fill and free a few slots so the same-time events below land in reused
  // slots, in the free list's (reverse) order rather than scheduling order.
  std::vector<EventId> scratch;
  for (int i = 0; i < 5; ++i) {
    scratch.push_back(q.ScheduleAfter(Duration::Nanos(1), [&] { order.push_back(-1); }));
  }
  for (EventId id : scratch) {
    ASSERT_TRUE(q.Cancel(id));
  }
  // Odd tags resume a parked coroutine, even tags run a std::function.
  std::vector<Task<void>> tasks;
  std::vector<std::coroutine_handle<>> handles(8);
  for (int i = 0; i < 8; ++i) {
    const Time at = Time::Zero() + Duration::Nanos(5);
    if (i % 2 == 0) {
      q.ScheduleAt(at, [&order, i] { order.push_back(i); });
      continue;
    }
    tasks.push_back(RecordOnResume(&order, i, &handles[i]));
    tasks.back().Start();
    ASSERT_TRUE(handles[i] != nullptr);
    q.ScheduleResumeAt(at, handles[i]);
  }
  EXPECT_EQ(q.pending(), 8u);
  q.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
  for (const Task<void>& t : tasks) {
    EXPECT_TRUE(t.done());
  }
}

TEST(EventQueue, CancelledResumeDoesNotResume) {
  EventQueue q;
  std::vector<int> order;
  std::coroutine_handle<> parked;
  Task<void> t = RecordOnResume(&order, 1, &parked);
  t.Start();
  EventId id = q.ScheduleResumeAfter(Duration::Nanos(3), parked);
  EXPECT_TRUE(q.Cancel(id));
  q.RunUntilIdle();
  EXPECT_TRUE(order.empty());
  EXPECT_FALSE(t.done());
  EXPECT_EQ(q.total_fired(), 0u);
}

// --- Task / coroutine tests ---

Task<int> ReturnsValue() { co_return 42; }

Task<int> AddsNested() {
  int a = co_await ReturnsValue();
  int b = co_await ReturnsValue();
  co_return a + b;
}

TEST(Task, TopLevelCompletion) {
  bool done = false;
  Task<int> t = ReturnsValue();
  EXPECT_FALSE(t.done());
  t.Start([&] { done = true; });
  EXPECT_TRUE(done);
  EXPECT_EQ(t.TakeResult(), 42);
}

TEST(Task, NestedComposition) {
  Task<int> t = AddsNested();
  t.Start();
  ASSERT_TRUE(t.done());
  EXPECT_EQ(t.TakeResult(), 84);
}

Task<void> SuspendsOnce(std::coroutine_handle<>* out, int* stage) {
  *stage = 1;
  co_await SuspendTo([out](std::coroutine_handle<> h) { *out = h; });
  *stage = 2;
}

TEST(Task, SuspendToParksAndResumes) {
  std::coroutine_handle<> h;
  int stage = 0;
  Task<void> t = SuspendsOnce(&h, &stage);
  t.Start();
  EXPECT_EQ(stage, 1);
  EXPECT_FALSE(t.done());
  ASSERT_TRUE(h);
  h.resume();
  EXPECT_EQ(stage, 2);
  EXPECT_TRUE(t.done());
}

Task<int> SuspendingChild(std::coroutine_handle<>* out) {
  co_await SuspendTo([out](std::coroutine_handle<> h) { *out = h; });
  co_return 7;
}

Task<int> ParentOfSuspending(std::coroutine_handle<>* out) {
  int v = co_await SuspendingChild(out);
  co_return v * 3;
}

TEST(Task, ResumeOfInnermostDrivesWholeStack) {
  std::coroutine_handle<> h;
  Task<int> t = ParentOfSuspending(&h);
  t.Start();
  EXPECT_FALSE(t.done());
  h.resume();  // resuming the child must also complete the parent
  ASSERT_TRUE(t.done());
  EXPECT_EQ(t.TakeResult(), 21);
}

struct TestError {};

Task<void> Throws() {
  throw TestError{};
  co_return;  // unreachable; makes this a coroutine
}

Task<void> PropagatesFromChild() { co_await Throws(); }

TEST(Task, ExceptionPropagatesThroughAwait) {
  Task<void> t = PropagatesFromChild();
  t.Start();
  ASSERT_TRUE(t.done());
  EXPECT_THROW(t.TakeResult(), TestError);
}

// Coroutine + event queue: the integration the whole simulator relies on.
Task<void> WaitsTwice(EventQueue* q, std::vector<double>* stamps) {
  stamps->push_back(q->now().nanos());
  co_await SuspendTo([q](std::coroutine_handle<> h) {
    q->ScheduleAfter(Duration::Nanos(10), [h] { h.resume(); });
  });
  stamps->push_back(q->now().nanos());
  co_await SuspendTo([q](std::coroutine_handle<> h) {
    q->ScheduleAfter(Duration::Nanos(5), [h] { h.resume(); });
  });
  stamps->push_back(q->now().nanos());
}

TEST(Task, DrivenByEventQueue) {
  EventQueue q;
  std::vector<double> stamps;
  Task<void> t = WaitsTwice(&q, &stamps);
  t.Start();
  q.RunUntilIdle();
  ASSERT_TRUE(t.done());
  EXPECT_EQ(stamps, (std::vector<double>{0.0, 10.0, 15.0}));
}

// --- Rng / stats ---

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123), c(124);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST(Rng, UniformIntInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = rng.UniformInt(3, 9);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 9u);
  }
}

TEST(Rng, ExponentialMean) {
  Rng rng(11);
  RunningStat s;
  for (int i = 0; i < 20000; ++i) {
    s.Add(rng.Exponential(50.0));
  }
  EXPECT_NEAR(s.mean(), 50.0, 2.0);
}

TEST(RunningStat, MeanAndStddev) {
  RunningStat s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.Add(v);
  }
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 0.001);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
}

TEST(Samples, Percentiles) {
  Samples s;
  for (int i = 1; i <= 100; ++i) {
    s.Add(static_cast<double>(i));
  }
  EXPECT_NEAR(s.Percentile(50), 50.5, 0.01);
  EXPECT_NEAR(s.Percentile(0), 1.0, 0.01);
  EXPECT_NEAR(s.Percentile(100), 100.0, 0.01);
  EXPECT_NEAR(s.Percentile(99), 99.01, 0.1);
}

}  // namespace
}  // namespace dipc::sim
