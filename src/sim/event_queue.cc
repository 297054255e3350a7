#include "sim/event_queue.h"

#include <utility>

#include "base/check.h"

namespace dipc::sim {

EventId EventQueue::Push(Time t, uint32_t& slot) {
  DIPC_CHECK(t >= now_);
  if (free_head_ != kNoFreeSlot) {
    slot = free_head_;
    free_head_ = slots_[slot].next_free;
  } else {
    DIPC_CHECK(slots_.size() < kNoFreeSlot);
    slot = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  const uint32_t gen = slots_[slot].gen;
  heap_.push(Entry{t, next_seq_++, slot, gen});
  ++live_count_;
  return (static_cast<EventId>(gen) << 32) | slot;
}

void EventQueue::Release(uint32_t slot) {
  Slot& s = slots_[slot];
  if (++s.gen == 0) {
    s.gen = 1;  // keep ids nonzero across wrap-around
  }
  s.next_free = free_head_;
  free_head_ = slot;
}

EventId EventQueue::ScheduleAt(Time t, std::function<void()> fn) {
  DIPC_CHECK(fn != nullptr);
  uint32_t slot;
  EventId id = Push(t, slot);
  slots_[slot].fn = std::move(fn);
  return id;
}

EventId EventQueue::ScheduleResumeAt(Time t, std::coroutine_handle<> h) {
  DIPC_CHECK(h != nullptr);
  uint32_t slot;
  EventId id = Push(t, slot);
  slots_[slot].resume = h;
  return id;
}

bool EventQueue::Cancel(EventId id) {
  const auto slot = static_cast<uint32_t>(id);
  const auto gen = static_cast<uint32_t>(id >> 32);
  // A released slot's generation was bumped past every id issued for it, and
  // no generation is 0, so kInvalidEventId never matches either.
  if (slot >= slots_.size() || slots_[slot].gen != gen) {
    return false;
  }
  Slot& s = slots_[slot];
  s.resume = nullptr;
  s.fn = nullptr;  // heap entry becomes a tombstone, skipped in RunOne
  Release(slot);
  --live_count_;
  return true;
}

bool EventQueue::SkipCancelled() {
  while (!heap_.empty()) {
    const Entry& top = heap_.top();
    if (slots_[top.slot].gen == top.gen) {
      return true;
    }
    heap_.pop();
  }
  return false;
}

void EventQueue::FireTop() {
  const Entry top = heap_.top();
  heap_.pop();
  // Take the action out before running it: it may schedule events, which can
  // reuse this slot or grow the slab.
  Slot& s = slots_[top.slot];
  const std::coroutine_handle<> h = s.resume;
  std::function<void()> fn;
  if (h != nullptr) {
    s.resume = nullptr;
  } else {
    fn = std::move(s.fn);
    s.fn = nullptr;
  }
  Release(top.slot);
  --live_count_;
  DIPC_CHECK(top.at >= now_);
  now_ = top.at;
  ++fired_count_;
  if (h != nullptr) {
    h.resume();
  } else {
    fn();
  }
}

namespace {

// Sets the run-loop deadline for a scope and restores the outer one on the
// way out, an exception included.
class DeadlineScope {
 public:
  DeadlineScope(Time& deadline, Time inner)
      : deadline_(deadline), outer_(std::exchange(deadline, inner)) {}
  DeadlineScope(const DeadlineScope&) = delete;
  DeadlineScope& operator=(const DeadlineScope&) = delete;
  ~DeadlineScope() { deadline_ = outer_; }

 private:
  Time& deadline_;
  const Time outer_;
};

}  // namespace

bool EventQueue::RunOne() {
  if (!SkipCancelled()) {
    return false;
  }
  const DeadlineScope no_loop(run_deadline_, kNoRunLoop);
  FireTop();
  return true;
}

bool EventQueue::TryAdvance(Duration d) {
  DIPC_CHECK(d >= Duration::Zero());
  const Time t = now_ + d;
  if (t > run_deadline_) {
    return false;  // past the run loop's deadline, or no run loop at all
  }
  // Strict: an event due at `t` itself was queued first, so it fires first.
  if (SkipCancelled() && heap_.top().at <= t) {
    return false;
  }
  now_ = t;
  ++fired_count_;
  return true;
}

uint64_t EventQueue::RunUntil(Time deadline) {
  const uint64_t n = RunLoop(deadline);
  if (now_ < deadline) {
    now_ = deadline;
  }
  return n;
}

uint64_t EventQueue::RunLoop(Time deadline) {
  const uint64_t fired_before = fired_count_;
  const DeadlineScope loop(run_deadline_, deadline);
  while (SkipCancelled() && heap_.top().at <= deadline) {
    FireTop();
  }
  return fired_count_ - fired_before;
}

}  // namespace dipc::sim
