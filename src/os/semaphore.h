// POSIX-style semaphore built on a futex (§2.2's "Sem." primitive).
//
// Uncontended operations stay in user space (one atomic); contended ones
// park and hand off through os::Futex, so a wait pays the futex syscall
// path and a post to a parked waiter pays the wake syscall and, when the
// waiter sits on another CPU, the IPI.
#ifndef DIPC_OS_SEMAPHORE_H_
#define DIPC_OS_SEMAPHORE_H_

#include <cstdint>

#include "base/result.h"
#include "obs/metrics.h"
#include "os/deadline.h"
#include "os/futex.h"
#include "os/kernel.h"
#include "sim/task.h"

namespace dipc::os {

class Semaphore : public KernelObject {
 public:
  explicit Semaphore(int64_t initial = 0) : count_(initial), futex_(SharedTelemetry()) {}

  std::string_view type_name() const override { return "semaphore"; }

  // Calibration (documented in hw/cost_model.h's header comment): glibc
  // sem_wait/sem_post user fast path.
  static constexpr sim::Duration kUserFastPath = sim::Duration::Nanos(9.0);

  // Timed, failure-aware wait. Returns kOk with a token consumed, kTimedOut
  // when a finite `deadline` expires first (no token consumed), or the
  // Fail() code when the semaphore's owner died. The outcome is settled in
  // the kernel: a Post that raced the kernel entry leaves its token to take,
  // and a Fail() landing while this thread entered the kernel (or before it
  // resumed) fails the wait instead of parking it on an object nobody will
  // ever post again.
  sim::Task<base::Status> WaitUntil(Env env, Deadline deadline = {}) {
    co_await env.kernel->Spend(*env.self, kUserFastPath, TimeCat::kUser);
    if (failed_) {
      co_return code_;
    }
    if (count_ > 0) {
      --count_;  // uncontended: futex not entered
      co_return base::Status::Ok();
    }
    base::Status result = base::Status::Ok();
    (void)co_await futex_.Park(
        env, deadline, [this] { return !failed_ && count_ == 0; },
        [&](Futex::Woke woke) {
          if (woke == Futex::Woke::kTimedOut) {
            result = base::ErrorCode::kTimedOut;
          } else if (failed_) {
            result = code_;  // no token was handed
          } else if (woke == Futex::Woke::kNotBlocked) {
            --count_;  // raced with a post while entering the kernel
          }
          // Otherwise woken by Post: the token was handed over directly.
        });
    co_return result;
  }

  // Untimed legacy flavor. After Fail() it returns (with the error dropped)
  // instead of hanging; callers that need the code use WaitUntil.
  // NOLINT-DIPC(DEADLINE-THREAD): deliberate never-deadline convenience
  // wrapper over WaitUntil; deadline-aware callers use WaitUntil directly.
  sim::Task<void> Wait(Env env) { (void)co_await WaitUntil(env, Deadline::Never()); }

  sim::Task<void> Post(Env env) {
    co_await env.kernel->Spend(*env.self, kUserFastPath, TimeCat::kUser);
    const bool handed = co_await futex_.HandOff(env);
    if (!handed) {
      ++count_;  // nobody waiting: user-space only
    }
  }

  // Owner-death teardown: latches `code`, wakes every parked waiter with it
  // and makes every future Wait fail immediately. Irreversible, like a
  // futex word unmapped with its owner. `kernel` drives the wakeups (Fail
  // runs from death hooks that carry no thread Env).
  void Fail(Kernel& kernel, base::ErrorCode code) {
    failed_ = true;
    code_ = code;
    futex_.WakeAll(kernel);
  }

  int64_t count() const { return count_; }
  size_t waiter_count() const { return futex_.parked(); }
  bool failed() const { return failed_; }

 private:
  // Semaphores are created in bulk (one per fabric call), so the metrics
  // are process-wide aggregates, resolved once; per-object attribution
  // comes from the trace (obj = a fresh id per semaphore).
  static Futex::Telemetry SharedTelemetry() {
    static const Futex::Telemetry shared = [] {
      obs::Registry& reg = obs::Registry::Default();
      return Futex::Telemetry{0, reg.Get(obs::kSemFutexWaits), reg.Get(obs::kSemFutexWakes),
                              reg.Get(obs::kSemParkNs)};
    }();
    Futex::Telemetry t = shared;
    t.obj = obs::NewObjectId();
    return t;
  }

  int64_t count_;
  bool failed_ = false;
  base::ErrorCode code_ = base::ErrorCode::kCalleeFailed;
  Futex futex_;
};

}  // namespace dipc::os

#endif  // DIPC_OS_SEMAPHORE_H_
