// MPMC slot queue in a VAS-mapped shared segment.
//
// A bounded queue of 8-byte slots (values or packed descriptors) shared by
// any number of producer/consumer threads across dIPC processes. The
// uncontended path is user-level (atomics on head/tail plus one slot
// access); full/empty block through the futex path with FIFO wakeups, which
// makes consumer scheduling fair and deterministic under the event queue.
//
// Batching: PushN/PopN move N slots per call, paying the fixed per-op
// software toll (fast-path accounting + at most one futex wake) once per
// batch instead of once per slot. Producers and consumers park on one
// os::Futex each, whose live-waiter count (the user-level futex convention)
// suppresses wakes: a waker that reads a zero count skips the FUTEX_WAKE
// syscall entirely, and a woken thread chains the wake onward when work or
// space remains for further parked peers, so one wake per batch is enough
// for liveness.
//
// Closing is two-flavored, mirroring pipe EOF vs. peer crash:
//   - Close(): producers fail immediately, consumers drain then see the
//     close code (orderly shutdown);
//   - Fail(code): every operation fails immediately and all blocked threads
//     wake with `code` (dead-peer teardown).
#ifndef DIPC_CHAN_MPMC_QUEUE_H_
#define DIPC_CHAN_MPMC_QUEUE_H_

#include <cstdint>
#include <optional>
#include <span>

#include "base/result.h"
#include "chan/segment.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "os/deadline.h"
#include "os/futex.h"
#include "os/kernel.h"
#include "sim/task.h"

namespace dipc::chan {

class MpmcQueue {
 public:
  static constexpr uint64_t kSlotBytes = 8;

  // Maps a `capacity`-slot segment through `proc`, tagged `tag` (callers
  // grant `tag` to every participating domain). `scope` names the queue's
  // metrics ("<scope>/blocked_pushes", ...; none picks "mpmc/<fresh id>"),
  // and its first id is the trace-event object id, so an owner that passes
  // its own scope gets queue events attributed to the channel they serve.
  MpmcQueue(os::Kernel& kernel, os::Process& proc, uint32_t capacity, hw::DomainTag tag,
            std::optional<obs::QueueScope> scope = std::nullopt);

  // Setup-time enqueue: no cost, no blocking (used to pre-fill free lists).
  void Prime(uint64_t value);

  // Teardown-time enqueue from a context with no thread Env (death hooks):
  // direct store like Prime, but additionally wakes one parked consumer so a
  // peer blocked on Pop sees the slot a dead process gave back. No cost is
  // charged (the work happens inside the kill sweep, like Close/Fail wakes).
  void PushNoEnv(uint64_t value);

  // Blocking push; fails with the close/fail code once closed. A finite
  // `deadline` bounds the full-queue park with kTimedOut.
  sim::Task<base::Status> Push(os::Env env, uint64_t value, os::Deadline deadline = {});

  // Blocking pop. After Close() it drains remaining slots, then fails with
  // the close code; after Fail() it fails immediately. A finite `deadline`
  // bounds the empty-queue park with kTimedOut.
  sim::Task<base::Result<uint64_t>> Pop(os::Env env, os::Deadline deadline = {});

  // Batched push of all of `values` (blocking for space between chunks when
  // the batch exceeds the free room). One fast-path accounting charge and at
  // most one futex wake per chunk — one per call in the common non-blocking
  // case. On failure, `*pushed` (when non-null) reports how many values were
  // published before the queue closed under the call. A finite `deadline`
  // bounds every park: an expired park where the queue is still full fails
  // with kTimedOut (partial progress reported through `*pushed`).
  sim::Task<base::Status> PushN(os::Env env, std::span<const uint64_t> values,
                                uint64_t* pushed = nullptr, os::Deadline deadline = {});

  // Batched pop of up to `out.size()` slots: blocks until at least one slot
  // is available, then drains what is there (never blocks for a full batch).
  // Returns the number popped. Same close/fail semantics as Pop; a finite
  // `deadline` bounds the empty-queue park with kTimedOut.
  sim::Task<base::Result<uint64_t>> PopN(os::Env env, std::span<uint64_t> out,
                                         os::Deadline deadline = {});

  void Close(base::ErrorCode code = base::ErrorCode::kBrokenChannel);
  void Fail(base::ErrorCode code);

  uint64_t size() const { return count_; }
  uint32_t capacity() const { return capacity_; }
  bool closed() const { return closed_; }
  uint64_t blocked_pushes() const { return blocked_pushes_; }
  uint64_t blocked_pops() const { return blocked_pops_; }
  uint64_t futex_wakes() const { return producers_.wakes() + consumers_.wakes(); }
  uint64_t timeouts() const { return timeouts_; }
  uint32_t obs_obj() const { return obs_obj_; }

 private:
  hw::VirtAddr SlotVa(uint64_t pos) const { return seg_.base + (pos % capacity_) * kSlotBytes; }
  // One park of a blocked push (`push`) or pop, with the queue's stats.
  // Returns kTimedOut when `deadline` passed with the queue still blocked
  // (`want` slots outstanding), kOk otherwise: the caller re-checks.
  sim::Task<base::ErrorCode> Park(os::Env env, bool push, os::Deadline deadline, uint64_t want);
  // Copies `n` values between `values` and the ring starting at `pos`,
  // split at the wrap point; accumulates the (batched) slot access cost.
  base::Status AccessSlots(os::Env env, uint64_t pos, std::span<const uint64_t> values,
                           std::span<uint64_t> out, sim::Duration* cost);

  os::Kernel& kernel_;
  hw::PageTable* pt_;  // the page table the segment was mapped through
  Segment seg_;
  uint32_t capacity_;
  uint64_t head_ = 0;
  uint64_t tail_ = 0;
  uint64_t count_ = 0;
  bool closed_ = false;
  bool drain_allowed_ = true;
  base::ErrorCode code_ = base::ErrorCode::kBrokenChannel;
  uint64_t blocked_pushes_ = 0;  // cumulative (stats)
  uint64_t blocked_pops_ = 0;    // cumulative (stats)
  uint64_t timeouts_ = 0;        // parks that expired with the predicate still true
  // Registry mirrors of the stats above, plus the park-time distribution
  // (the futexes count their own wakes); trace events carry obs_obj_ so a
  // timeline attributes to this queue.
  uint32_t obs_obj_ = 0;
  obs::Counter* m_blocked_pushes_ = nullptr;
  obs::Counter* m_blocked_pops_ = nullptr;
  obs::Counter* m_timeouts_ = nullptr;
  obs::Histogram* m_park_ns_ = nullptr;
  os::Futex producers_;
  os::Futex consumers_;
};

}  // namespace dipc::chan

#endif  // DIPC_CHAN_MPMC_QUEUE_H_
