// The futex model: the one kernel slow path behind every blocking primitive.
//
// A Futex is a FIFO wait queue plus the user-level live-waiter count that
// sits next to a futex word. os::Semaphore, chan::MpmcQueue and
// chan::Plane's credit gate all park and wake through it, so the "Sem."
// bars of Figs. 2 and 5 and the channel's contended path pay one calibrated
// cost (§2.2):
//   - Park is FUTEX_WAIT: syscall entry, the kernel futex work, the
//     still-blocked re-check, an optional deadline timer, and the parked
//     interval billed to the domain as blocked time.
//   - HandOff is sem_post's direct hand-off: it pops a parked waiter first
//     and pays the FUTEX_WAKE only when there was one.
//   - Wake is the committed, waiter-count-suppressed FUTEX_WAKE: free when
//     no waiter is counted, otherwise paid in full before the pop, even when
//     the counted waiter is still entering the kernel (wasted, not lost:
//     Park re-checks before sleeping).
//   - WakeAll and WakeOne are kernel-side wakes with no thread context and
//     no waker cost, for the close, fail and death paths.
#ifndef DIPC_OS_FUTEX_H_
#define DIPC_OS_FUTEX_H_

#include <cstdint>
#include <optional>

#include "fault/fault.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "os/deadline.h"
#include "os/kernel.h"
#include "sim/task.h"

namespace dipc::os {

class Futex {
 public:
  // Kernel futex work per FUTEX_WAIT / FUTEX_WAKE (calibration in
  // hw/cost_model.h's header comment).
  static constexpr sim::Duration kWaitKernel = sim::Duration::Nanos(140.0);
  static constexpr sim::Duration kWakeKernel = sim::Duration::Nanos(130.0);

  // What this futex reports besides the kernel-wide futex_waiters gauge:
  // the trace object id of its events, and optional registry handles for
  // the threads it puts to sleep, the wake syscalls it issues and the time
  // each sleeper spends asleep.
  struct Telemetry {
    uint32_t obj = 0;
    obs::Counter* sleeps = nullptr;
    obs::Counter* wakes = nullptr;
    obs::Histogram* sleep_ns = nullptr;
  };

  Futex() = default;
  // `probe_wakes` routes every committed Wake through the kFutexWake fault
  // probe, whose drop_wake action loses it (deadline-armed parks recover).
  explicit Futex(Telemetry t, bool probe_wakes = false) : t_(t), probe_wakes_(probe_wakes) {}

  // How a Park ended.
  enum class Woke : uint8_t {
    kNotBlocked,  // the in-kernel re-check found the predicate false
    kTimedOut,    // the deadline passed, before the park or during it
    kWoken,       // a wake resumed the thread
  };

  struct NoSettle {
    void operator()(Woke) const {}
  };

  // FUTEX_WAIT with an absolute timeout. Parks the calling thread unless
  // `still_blocked()` turned false while it entered the kernel (the futex
  // value re-check: a wake issued in that window found nobody parked, so
  // sleeping anyway would lose it). A finite `deadline` arms a timer that
  // pulls the thread off the queue if it fires first. `settle(woke)` runs
  // in the kernel before the syscall returns, so a caller can act on the
  // outcome atomically with the re-check or the wake-up. The thread counts
  // as a live waiter from before the kernel entry to after the exit.
  // kTimedOut is a hint, not a verdict (a wake and the timer can land on
  // the same picosecond): callers re-check their predicate either way.
  template <typename Pred, typename Settle = NoSettle>
  sim::Task<Woke> Park(Env env, Deadline deadline, Pred still_blocked, Settle settle = {}) {
    Kernel& k = *env.kernel;
    Thread* self = env.self;
    ++waiting_;
    co_await k.SyscallEnter(env);
    co_await k.Spend(*self, kWaitKernel, TimeCat::kKernel);
    if (fault::Decision d = DIPC_FAULT_POINT(kFutexPark, self->last_cpu());
        d.action == fault::Action::kDelay) {
      co_await k.Spend(*self, d.delay, TimeCat::kKernel);
    }
    Woke woke = Woke::kWoken;
    if (!still_blocked()) {
      woke = Woke::kNotBlocked;
    } else if (deadline.ExpiredAt(k.now())) {
      woke = Woke::kTimedOut;  // ETIMEDOUT without parking, like FUTEX_WAIT
    } else {
      k.futex_waiters()->Add(1);
      if (t_.sleeps != nullptr) {
        t_.sleeps->Add();
      }
      obs::Trace().Record(self->last_cpu(), obs::EventType::kFutexQDepth, t_.obj,
                          static_cast<uint64_t>(q_.size() + 1), k.now());
      const sim::Time park_start = k.now();
      // The timer only acts while the thread is still parked: a wake at the
      // same instant wins by FIFO event order and Remove returns false.
      // MakeRunnable on a thread killed while parked is a safe no-op, and
      // the frame outlives the kill (the kernel keeps Thread::task_ until
      // teardown), so capturing frame locals by reference is sound.
      bool timer_fired = false;
      sim::EventId timer = sim::kInvalidEventId;
      if (!deadline.never()) {
        timer = k.machine().events().ScheduleAt(deadline.at(), [&k, this, self, &timer_fired] {
          if (q_.Remove(self)) {
            timer_fired = true;
            (void)k.MakeRunnable(*self, std::nullopt);
          }
        });
      }
      co_await q_.Wait(env);
      if (timer_fired) {
        woke = Woke::kTimedOut;
      } else if (timer != sim::kInvalidEventId) {
        (void)k.machine().events().Cancel(timer);
      }
      const sim::Duration slept = k.now() - park_start;
      k.futex_waiters()->Sub(1);
      k.ChargeBlocked(*self, slept);
      if (t_.sleep_ns != nullptr) {
        t_.sleep_ns->Record(slept.nanos());
      }
      obs::Trace().Record(self->last_cpu(), obs::EventType::kFutexPark, t_.obj, 0, k.now(),
                          slept);
    }
    settle(woke);
    co_await k.SyscallExit(env);
    --waiting_;
    co_return woke;
  }

  // Direct hand-off: pops one parked waiter and, only if there was one,
  // pays the wake syscall, the kernel work and any cross-CPU IPI on the
  // waker's side. Returns false, at no cost, when nobody was parked.
  sim::Task<bool> HandOff(Env env) {
    Thread* waiter = q_.WakeOneThread();
    if (waiter == nullptr) {
      co_return false;
    }
    Kernel& k = *env.kernel;
    co_await k.SyscallEnter(env);
    co_await k.Spend(*env.self, kWakeKernel, TimeCat::kKernel);
    NoteWake(env, 1);
    co_await Resume(env, *waiter);
    co_await k.SyscallExit(env);
    co_return true;
  }

  // Committed wake: when a waiter is counted, pays the wake syscall and the
  // kernel work, then pops one parked thread (there may be none yet: the
  // counted waiter can still be entering the kernel). No counted waiter
  // means no syscall at all.
  sim::Task<void> Wake(Env env) {
    if (waiting_ == 0) {
      co_return;
    }
    if (probe_wakes_ && DIPC_FAULT_POINT(kFutexWake, env.self->last_cpu()).drop_wake()) {
      co_return;  // injected lost wake; deadline-armed parks recover
    }
    NoteWake(env, waiting_);
    Kernel& k = *env.kernel;
    co_await k.SyscallEnter(env);
    co_await k.Spend(*env.self, kWakeKernel, TimeCat::kKernel);
    if (Thread* waiter = q_.WakeOneThread(); waiter != nullptr) {
      co_await Resume(env, *waiter);
    }
    co_await k.SyscallExit(env);
  }

  void WakeAll(Kernel& kernel) { q_.WakeAll(kernel, std::nullopt); }
  void WakeOne(Kernel& kernel) {
    if (Thread* t = q_.WakeOneThread(); t != nullptr) {
      (void)kernel.MakeRunnable(*t, std::nullopt);
    }
  }

  // Threads between a Park's start and its end (the live-waiter count).
  uint64_t waiters() const { return waiting_; }
  // Threads asleep on the queue right now.
  size_t parked() const { return q_.size(); }
  // Wake syscalls issued.
  uint64_t wakes() const { return wakes_; }

 private:
  void NoteWake(Env env, uint64_t arg) {
    ++wakes_;
    if (t_.wakes != nullptr) {
      t_.wakes->Add();
    }
    obs::Trace().Record(env.self->last_cpu(), obs::EventType::kFutexWake, t_.obj, arg,
                        env.kernel->now());
  }
  // Makes `waiter` runnable and pays the IPI a cross-CPU wake costs.
  Kernel::SpendAwaiter Resume(Env env, Thread& waiter) {
    const sim::Duration ipi = env.kernel->MakeRunnable(waiter, env.self->last_cpu());
    return env.kernel->Spend(*env.self, ipi, TimeCat::kKernel);
  }

  WaitQueue q_;
  uint64_t waiting_ = 0;
  uint64_t wakes_ = 0;
  Telemetry t_;
  bool probe_wakes_ = false;
};

}  // namespace dipc::os

#endif  // DIPC_OS_FUTEX_H_
