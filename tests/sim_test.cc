// Unit tests for the discrete-event engine and coroutine tasks.
#include <gtest/gtest.h>

#include <string>
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

// --- Waits completed in place (EventQueue::TryAdvance) ---

// Waits `d` the way Kernel::Spend does: in place when the queue allows it,
// otherwise through a queued resume. Counts the in-place completions.
struct SpendOn {
  EventQueue* q;
  Duration d;
  int* in_place;
  bool await_ready() {
    const bool advanced = q->TryAdvance(d);
    *in_place += advanced ? 1 : 0;
    return advanced;
  }
  void await_suspend(std::coroutine_handle<> h) { q->ScheduleResumeAfter(d, h); }
  void await_resume() {}
};

// "<who>@<now in ns>", one line per step.
using Log = std::vector<std::string>;
void Note(Log* log, const EventQueue& q, const char* who) {
  log->push_back(std::string(who) + "@" + std::to_string(q.now().picos() / 1000));
}

// Notes "S", then spends each of `spends` in turn, noting "S" after each.
Task<void> Spender(EventQueue* q, Log* log, std::vector<Duration> spends, int* in_place) {
  Note(log, *q, "S");
  for (Duration d : spends) {
    co_await SpendOn{q, d, in_place};
    Note(log, *q, "S");
  }
}

struct SpendRun {
  Log log;
  uint64_t fired = 0;
  Time now;
  int in_place = 0;
};

// Starts a Spender at t=0 from an event, with one event "E" at `e_at`
// scheduled before it, and drives the queue with RunUntilIdle() or, when
// `queued_only`, with bare RunOne() calls.
SpendRun RunSpenderAgainstEvent(std::vector<Duration> spends, Duration e_at, bool queued_only) {
  EventQueue q;
  SpendRun r;
  q.ScheduleAt(Time::Zero() + e_at, [&] { Note(&r.log, q, "E"); });
  Task<void> t = Spender(&q, &r.log, std::move(spends), &r.in_place);
  q.ScheduleAt(Time::Zero(), [&] { t.Start(); });
  if (queued_only) {
    while (q.RunOne()) {
    }
  } else {
    q.RunUntilIdle();
  }
  EXPECT_TRUE(t.done());
  r.fired = q.total_fired();
  r.now = q.now();
  return r;
}

TEST(EventQueue, SpendEndingBeforeNextEventCompletesInPlace) {
  const std::vector<Duration> spends = {Duration::Nanos(30), Duration::Nanos(40)};
  SpendRun in_place = RunSpenderAgainstEvent(spends, Duration::Nanos(100), /*queued_only=*/false);
  SpendRun queued = RunSpenderAgainstEvent(spends, Duration::Nanos(100), /*queued_only=*/true);
  const Log expected = {"S@0", "S@30", "S@70", "E@100"};
  EXPECT_EQ(in_place.log, expected);
  EXPECT_EQ(queued.log, expected);
  EXPECT_EQ(in_place.in_place, 2);
  EXPECT_EQ(queued.in_place, 0);
  // The start event, two Spends and E, however the Spends completed.
  EXPECT_EQ(in_place.fired, 4u);
  EXPECT_EQ(queued.fired, 4u);
  EXPECT_EQ(in_place.now, Time::Zero() + Duration::Nanos(100));
  EXPECT_EQ(queued.now, in_place.now);
}

TEST(EventQueue, SpendTiedWithQueuedEventQueuesBehindIt) {
  // The first Spend ends at 30 ns, when E is due: E was scheduled first, so
  // it fires first and the Spend queues. The second Spend has the queue to
  // itself.
  const std::vector<Duration> spends = {Duration::Nanos(30), Duration::Nanos(10)};
  SpendRun in_place = RunSpenderAgainstEvent(spends, Duration::Nanos(30), /*queued_only=*/false);
  SpendRun queued = RunSpenderAgainstEvent(spends, Duration::Nanos(30), /*queued_only=*/true);
  const Log expected = {"S@0", "E@30", "S@30", "S@40"};
  EXPECT_EQ(in_place.log, expected);
  EXPECT_EQ(queued.log, expected);
  EXPECT_EQ(in_place.in_place, 1);
  EXPECT_EQ(in_place.fired, 4u);
  EXPECT_EQ(queued.fired, 4u);
}

TEST(EventQueue, RunUntilNeverAdvancesInPlacePastItsDeadline) {
  EventQueue q;
  Log log;
  int in_place = 0;
  Task<void> t = Spender(&q, &log, {Duration::Nanos(10), Duration::Nanos(10), Duration::Nanos(10)},
                         &in_place);
  q.ScheduleAt(Time::Zero(), [&] { t.Start(); });
  EXPECT_EQ(q.RunUntil(Time::Zero() + Duration::Nanos(25)), 3u);
  // The third Spend would end at 30 ns, past the deadline: it is queued.
  EXPECT_EQ(log, (Log{"S@0", "S@10", "S@20"}));
  EXPECT_EQ(in_place, 2);
  EXPECT_EQ(q.now(), Time::Zero() + Duration::Nanos(25));
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_EQ(q.RunUntil(Time::Zero() + Duration::Nanos(40)), 1u);
  EXPECT_EQ(log, (Log{"S@0", "S@10", "S@20", "S@30"}));
  EXPECT_EQ(q.now(), Time::Zero() + Duration::Nanos(40));
  EXPECT_EQ(q.total_fired(), 4u);
  EXPECT_TRUE(t.done());
}

TEST(EventQueue, CancelledEventDoesNotBlockInPlaceAdvance) {
  EventQueue q;
  Log log;
  int in_place = 0;
  EventId x = q.ScheduleAt(Time::Zero() + Duration::Nanos(5), [&] { Note(&log, q, "X"); });
  ASSERT_TRUE(q.Cancel(x));  // its heap entry stays behind as a tombstone
  Task<void> t = Spender(&q, &log, {Duration::Nanos(10)}, &in_place);
  q.ScheduleAt(Time::Zero(), [&] { t.Start(); });
  q.RunUntilIdle();
  EXPECT_EQ(log, (Log{"S@0", "S@10"}));
  EXPECT_EQ(in_place, 1);
  EXPECT_EQ(q.total_fired(), 2u);
  EXPECT_TRUE(t.done());
}

TEST(EventQueue, NoInPlaceAdvanceOutsideARunLoop) {
  EventQueue q;
  EXPECT_FALSE(q.TryAdvance(Duration::Nanos(1)));
  EXPECT_EQ(q.now(), Time::Zero());
  EXPECT_EQ(q.total_fired(), 0u);
  // Bare RunOne() calls are not a run loop.
  Log log;
  int in_place = 0;
  Task<void> t = Spender(&q, &log, {Duration::Nanos(10), Duration::Nanos(10)}, &in_place);
  q.ScheduleAt(q.now(), [&] { t.Start(); });
  while (q.RunOne()) {
  }
  EXPECT_EQ(log, (Log{"S@0", "S@10", "S@20"}));
  EXPECT_EQ(in_place, 0);
  EXPECT_TRUE(t.done());
  EXPECT_EQ(q.total_fired(), 3u);
}

TEST(EventQueue, RunOneInsideARunLoopDoesNotAdvanceInPlace) {
  EventQueue q;
  Log log;
  int in_place = 0;
  Task<void> t = Spender(&q, &log, {Duration::Nanos(10), Duration::Nanos(10)}, &in_place);
  // An event of the loop fires the Spender's start through RunOne(): its
  // first Spend queues. The loop itself fires the resume, so the second
  // Spend completes in place.
  q.ScheduleAt(Time::Zero(), [&] { EXPECT_TRUE(q.RunOne()); });
  q.ScheduleAt(Time::Zero(), [&] { t.Start(); });
  EXPECT_EQ(q.RunUntilIdle(), 4u);
  EXPECT_EQ(log, (Log{"S@0", "S@10", "S@20"}));
  EXPECT_EQ(in_place, 1);
  EXPECT_TRUE(t.done());
  EXPECT_EQ(q.now(), Time::Zero() + Duration::Nanos(20));
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
