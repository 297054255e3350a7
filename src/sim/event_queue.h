// Discrete-event simulation core: a cancellable time-ordered event queue.
//
// Events scheduled for the same instant fire in scheduling order, which keeps
// whole-system runs deterministic (a requirement for reproducible benchmarks).
//
// Layout and invariants:
//   - Every pending event owns one slot of a slab. A slot is recycled through
//     a free list as soon as its event fires or is cancelled, and each
//     recycle bumps the slot's generation.
//   - An EventId packs (generation, slot), so a stale id (its event already
//     fired or was cancelled, its slot maybe reused) never matches and
//     Cancel returns false for it instead of cancelling a stranger.
//   - The min-heap holds {at, seq, slot, gen}, ordered by (at, seq); seq is
//     unique per schedule, so firing order does not depend on slot reuse.
//     Cancel leaves the heap entry behind as a tombstone (its generation no
//     longer matches its slot) that RunOne and RunUntil skip.
//   - A slot holds either a coroutine handle (ScheduleResume*: resuming it
//     allocates nothing) or a std::function, never both.
//   - TryAdvance lets a coroutine that only spends time skip the heap: inside
//     RunUntil or RunUntilIdle, when no live event is due at or before
//     now()+d (and now()+d is within the loop's deadline), it moves now() to
//     now()+d and the caller simply continues. The queued path would have
//     fired exactly that event next, so the order of everything else is the
//     same. Such a Spend has no heap entry, but total_fired() counts it.
#ifndef DIPC_SIM_EVENT_QUEUE_H_
#define DIPC_SIM_EVENT_QUEUE_H_

#include <coroutine>
#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "sim/time.h"

namespace dipc::sim {

using EventId = uint64_t;
inline constexpr EventId kInvalidEventId = 0;

class EventQueue {
 public:
  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  Time now() const { return now_; }

  // Schedules `fn` to run at absolute time `t` (must be >= now()).
  EventId ScheduleAt(Time t, std::function<void()> fn);

  // Schedules `fn` to run `d` after now().
  EventId ScheduleAfter(Duration d, std::function<void()> fn) {
    return ScheduleAt(now_ + d, std::move(fn));
  }

  // Schedules `h.resume()` at absolute time `t` / `d` after now(). Same
  // ordering and cancellation as the std::function flavor.
  EventId ScheduleResumeAt(Time t, std::coroutine_handle<> h);
  EventId ScheduleResumeAfter(Duration d, std::coroutine_handle<> h) {
    return ScheduleResumeAt(now_ + d, h);
  }

  // Cancels a pending event. Returns false if it already fired or was cancelled.
  bool Cancel(EventId id);

  // Completes a `d`-long wait in place: returns true, with now() advanced by
  // `d` and the wait counted in total_fired(), when an event fired directly
  // by a RunUntil or RunUntilIdle loop is running, now()+d is within the
  // loop's deadline and no live event is due at or before now()+d. Otherwise
  // returns false and the caller schedules the wait as an event. A tie with
  // a queued event queues, so the earlier-scheduled event fires first, as
  // its seq says. The caller must be code that would hand control straight
  // back to the run loop if it waited: anything that ran after the wait
  // suspended would otherwise run at the later time. Its only caller is
  // os::Kernel::SpendAwaiter, whose threads the kernel resumes only from
  // events that end with the resume.
  bool TryAdvance(Duration d);

  // Runs the earliest pending event; returns false if the queue is empty.
  // It is not a run loop, even when an event of a running loop calls it:
  // nothing it fires advances in place.
  bool RunOne();

  // Runs events until the queue drains. Returns the count, waits completed
  // in place included.
  uint64_t RunUntilIdle() { return RunLoop(Time::Max()); }

  // Runs events with firing time <= `deadline`; advances now() to `deadline`
  // even if the queue drains earlier. Returns the count, as RunUntilIdle.
  uint64_t RunUntil(Time deadline);

  bool empty() const { return live_count_ == 0; }
  uint64_t pending() const { return live_count_; }
  uint64_t total_fired() const { return fired_count_; }

 private:
  struct Slot {
    std::coroutine_handle<> resume;
    std::function<void()> fn;
    uint32_t gen = 1;  // bumped on every release; never 0, so no id is 0
    uint32_t next_free = 0;
  };
  struct Entry {
    Time at;
    uint64_t seq;  // tie-breaker: FIFO among same-time events
    uint32_t slot;
    uint32_t gen;
    // Ordered as a min-heap via std::greater.
    bool operator>(const Entry& other) const {
      if (at != other.at) {
        return at > other.at;
      }
      return seq > other.seq;
    }
  };
  static constexpr uint32_t kNoFreeSlot = UINT32_MAX;

  // Takes a free slot and pushes its heap entry; the caller fills the action.
  EventId Push(Time t, uint32_t& slot);
  // Returns `slot` to the free list and bumps its generation.
  void Release(uint32_t slot);
  // Pops tombstones; true if the heap top is now a live event.
  bool SkipCancelled();
  // Pops the (live) heap top and runs its action at its time.
  void FireTop();
  // Fires events due at or before `deadline`, with TryAdvance enabled up to
  // it. Returns the count, waits completed in place included.
  uint64_t RunLoop(Time deadline);

  // run_deadline_ outside every run loop, and while RunOne fires an event:
  // earlier than any time, so TryAdvance never succeeds there.
  static constexpr Time kNoRunLoop = Time::FromPicos(-1);

  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap_;
  std::vector<Slot> slots_;
  uint32_t free_head_ = kNoFreeSlot;
  Time now_;
  Time run_deadline_ = kNoRunLoop;  // of the loop firing the running event
  uint64_t next_seq_ = 1;
  uint64_t live_count_ = 0;
  uint64_t fired_count_ = 0;
};

}  // namespace dipc::sim

#endif  // DIPC_SIM_EVENT_QUEUE_H_
