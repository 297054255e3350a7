#include "chan/mpmc_queue.h"

#include <algorithm>
#include <cstring>

namespace dipc::chan {

using os::TimeCat;

MpmcQueue::MpmcQueue(os::Kernel& kernel, os::Process& proc, uint32_t capacity, hw::DomainTag tag,
                     std::optional<obs::QueueScope> scope)
    : kernel_(kernel), pt_(&proc.page_table()), capacity_(capacity) {
  DIPC_CHECK(capacity > 0);
  auto seg = MapSegment(kernel, proc, uint64_t{capacity} * kSlotBytes, tag);
  DIPC_CHECK(seg.ok());
  seg_ = seg.value();
  if (!scope.has_value()) {
    scope.emplace(obs::kMpmcQueue, obs::NewObjectId());
  }
  obs_obj_ = scope->ids[0];
  obs::Registry& reg = obs::Registry::Default();
  m_blocked_pushes_ = reg.Get(obs::kQueueBlockedPushes, *scope);
  m_blocked_pops_ = reg.Get(obs::kQueueBlockedPops, *scope);
  obs::Counter* futex_wakes = reg.Get(obs::kQueueFutexWakes, *scope);
  m_timeouts_ = reg.Get(obs::kQueueTimeouts, *scope);
  m_park_ns_ = reg.Get(obs::kQueueParkNs, *scope);
  producers_ = consumers_ = os::Futex({obs_obj_, nullptr, futex_wakes}, /*probe_wakes=*/true);
}

void MpmcQueue::Prime(uint64_t value) {
  DIPC_CHECK(count_ < capacity_);
  // Setup-time direct store through physical memory: no thread context, no
  // cost. Slots never straddle pages (8-byte slots, page-aligned base).
  auto pa = pt_->Translate(SlotVa(tail_));
  DIPC_CHECK(pa.has_value());
  kernel_.machine().mem().Write(*pa, std::as_bytes(std::span(&value, 1)));
  ++tail_;
  ++count_;
}

void MpmcQueue::PushNoEnv(uint64_t value) {
  DIPC_CHECK(count_ < capacity_);
  auto pa = pt_->Translate(SlotVa(tail_));
  DIPC_CHECK(pa.has_value());
  kernel_.machine().mem().Write(*pa, std::as_bytes(std::span(&value, 1)));
  ++tail_;
  ++count_;
  consumers_.WakeOne(kernel_);
}

sim::Task<base::ErrorCode> MpmcQueue::Park(os::Env env, bool push, os::Deadline deadline,
                                           uint64_t want) {
  os::Kernel& k = *env.kernel;
  ++(push ? blocked_pushes_ : blocked_pops_);
  (push ? m_blocked_pushes_ : m_blocked_pops_)->Add();
  auto blocked = [this, push] { return (push ? count_ == capacity_ : count_ == 0) && !closed_; };
  const sim::Time park_start = k.now();
  os::Futex& futex = push ? producers_ : consumers_;
  const os::Futex::Woke woke = co_await futex.Park(env, deadline, blocked);
  m_park_ns_->Record((k.now() - park_start).nanos());
  if (woke == os::Futex::Woke::kTimedOut && blocked()) {
    ++timeouts_;
    m_timeouts_->Add();
    obs::Trace().Record(env.self->last_cpu(), obs::EventType::kTimeout, obs_obj_, want, k.now());
    co_return base::ErrorCode::kTimedOut;
  }
  co_return base::ErrorCode::kOk;
}

base::Status MpmcQueue::AccessSlots(os::Env env, uint64_t pos, std::span<const uint64_t> values,
                                    std::span<uint64_t> out, sim::Duration* cost) {
  os::Kernel& k = *env.kernel;
  os::Thread& self = *env.self;
  const bool writing = !values.empty();
  const uint64_t n = writing ? values.size() : out.size();
  uint64_t off = pos % capacity_;
  uint64_t first = std::min(n, capacity_ - off);
  for (auto [start, span_off, span_n] :
       {std::tuple{off, uint64_t{0}, first}, std::tuple{uint64_t{0}, first, n - first}}) {
    if (span_n == 0) {
      continue;
    }
    hw::VirtAddr va = seg_.base + start * kSlotBytes;
    auto c = k.UserAccessCost(self, va, span_n * kSlotBytes,
                              writing ? hw::AccessType::kWrite : hw::AccessType::kRead);
    if (!c.ok()) {
      return c.status();
    }
    *cost += c.value();
    if (writing) {
      base::Status ws =
          k.UserWrite(self, va, std::as_bytes(values.subspan(span_off, span_n)));
      DIPC_CHECK(ws.ok());
    } else {
      base::Status rs =
          k.UserRead(self, va, std::as_writable_bytes(out.subspan(span_off, span_n)));
      DIPC_CHECK(rs.ok());
    }
  }
  return base::Status::Ok();
}

sim::Task<base::Status> MpmcQueue::Push(os::Env env, uint64_t value, os::Deadline deadline) {
  co_return co_await PushN(env, std::span(&value, 1), nullptr, deadline);
}

sim::Task<base::Result<uint64_t>> MpmcQueue::Pop(os::Env env, os::Deadline deadline) {
  uint64_t value = 0;
  auto n = co_await PopN(env, std::span(&value, 1), deadline);
  if (!n.ok()) {
    co_return n.code();
  }
  co_return value;
}

sim::Task<base::Status> MpmcQueue::PushN(os::Env env, std::span<const uint64_t> values,
                                         uint64_t* pushed, os::Deadline deadline) {
  os::Kernel& k = *env.kernel;
  os::Thread& self = *env.self;
  if (pushed != nullptr) {
    *pushed = 0;
  }
  if (values.empty()) {
    co_return base::ErrorCode::kInvalidArgument;
  }
  // The fixed fast-path toll (head/tail atomics + bookkeeping) is paid once
  // per batch — the O(1/batch) half of the batching argument.
  co_await k.Spend(self, k.costs().chan_fast_path, TimeCat::kUser);
  {
    // Perturbs *timing* only, before the full/empty check — the claim itself
    // stays synchronous with the check, so the queue invariant holds.
    fault::Decision d = DIPC_FAULT_POINT(kSlotClaim, self.last_cpu());
    if (d.action == fault::Action::kDelay) {
      co_await k.Spend(self, d.delay, TimeCat::kUser);
    }
  }
  uint64_t done = 0;
  while (done < values.size()) {
    while (count_ == capacity_) {
      if (closed_) {
        co_return code_;
      }
      const base::ErrorCode parked =
          co_await Park(env, /*push=*/true, deadline, values.size() - done);
      if (parked != base::ErrorCode::kOk) {
        co_return parked;
      }
    }
    if (closed_) {
      co_return code_;
    }
    // Claim up to the free room in one synchronous block with the full check
    // above: a co_await between the check and the tail_/count_ update is a
    // scheduling point where another producer could claim the same slots.
    uint64_t n = std::min<uint64_t>(values.size() - done, capacity_ - count_);
    sim::Duration cost;
    base::Status s = AccessSlots(env, tail_, values.subspan(done, n), {}, &cost);
    if (!s.ok()) {
      co_return s;
    }
    tail_ += n;
    count_ += n;
    done += n;
    if (pushed != nullptr) {
      *pushed = done;
    }
    co_await k.Spend(self, cost, TimeCat::kUser);
    // One (suppressed) wake per chunk; the woken consumer chains further
    // wakes while a backlog remains (see PopN), so one is enough.
    co_await consumers_.Wake(env);
  }
  // Wake chaining, producer side: when a consumer freed a multi-slot run it
  // woke only one producer; if room remains after this push, pass the wake
  // on so parked peers don't wait for the next pop.
  if (count_ < capacity_ && !closed_) {
    co_await producers_.Wake(env);
  }
  co_return base::Status::Ok();
}

sim::Task<base::Result<uint64_t>> MpmcQueue::PopN(os::Env env, std::span<uint64_t> out,
                                                  os::Deadline deadline) {
  os::Kernel& k = *env.kernel;
  os::Thread& self = *env.self;
  if (out.empty()) {
    co_return base::ErrorCode::kInvalidArgument;
  }
  co_await k.Spend(self, k.costs().chan_fast_path, TimeCat::kUser);
  {
    fault::Decision d = DIPC_FAULT_POINT(kSlotClaim, self.last_cpu());
    if (d.action == fault::Action::kDelay) {
      co_await k.Spend(self, d.delay, TimeCat::kUser);
    }
  }
  while (count_ == 0) {
    if (closed_) {
      co_return code_;
    }
    const base::ErrorCode parked = co_await Park(env, /*push=*/false, deadline, out.size());
    if (parked != base::ErrorCode::kOk) {
      co_return parked;
    }
  }
  if (!drain_allowed_) {
    co_return code_;
  }
  // Mirror of PushN: claim the run and retire head_/count_ synchronously
  // with the empty check, then pay the (batched) access cost. Suspending
  // before the claim would let a second consumer pop the same slots;
  // suspending between the claim and the read would let a producer
  // overwrite them (freed slots are immediately reusable when the queue was
  // full). Never blocks for a full batch: drains what is there.
  uint64_t n = std::min<uint64_t>(out.size(), count_);
  sim::Duration cost;
  base::Status s = AccessSlots(env, head_, {}, out.subspan(0, n), &cost);
  if (!s.ok()) {
    co_return s.code();
  }
  head_ += n;
  count_ -= n;
  co_await k.Spend(self, cost, TimeCat::kUser);
  co_await producers_.Wake(env);
  // Wake chaining, consumer side: a batched push woke only one consumer; if
  // a backlog remains, pass the wake on to the next parked consumer.
  if (count_ > 0) {
    co_await consumers_.Wake(env);
  }
  co_return n;
}

void MpmcQueue::Close(base::ErrorCode code) {
  if (closed_) {
    return;
  }
  closed_ = true;
  code_ = code;
  // No Env here (teardown hooks): kernel-side wakes, like Pipe close.
  producers_.WakeAll(kernel_);
  consumers_.WakeAll(kernel_);
}

void MpmcQueue::Fail(base::ErrorCode code) {
  closed_ = true;
  drain_allowed_ = false;
  code_ = code;
  producers_.WakeAll(kernel_);
  consumers_.WakeAll(kernel_);
}

}  // namespace dipc::chan
