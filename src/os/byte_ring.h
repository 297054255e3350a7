// A kernel byte ring: the buffer under a pipe and under each direction of a
// UNIX stream socket.
//
// Write and Read are whole read(2)/write(2) calls: syscall entry, the
// caller's kernel path cost, the copy_{from,to}_user of the bytes (the
// copying IPC design point of §2.2, split at the wrap point) and syscall
// exit. Every chunk written wakes one parked reader and every chunk read
// wakes one parked writer; a wake pays the IPI of a cross-CPU wakeup plus
// the wait-queue work on the caller's side. Callers keep their own kernel
// path cost, their close semantics on top of Close(), and anything that
// rides along the bytes (a socket's SCM_RIGHTS objects) through hooks.
#ifndef DIPC_OS_BYTE_RING_H_
#define DIPC_OS_BYTE_RING_H_

#include <algorithm>
#include <cstdint>
#include <optional>

#include "base/result.h"
#include "os/kernel.h"
#include "sim/task.h"

namespace dipc::os {

class ByteRing {
 public:
  ByteRing(Kernel& kernel, uint64_t capacity)
      : capacity_(capacity), buf_pa_(kernel.AllocKernelBuffer(capacity)) {}

  // Writes all `len` bytes, parking for room between chunks; `on_enter()`
  // runs once the kernel path is paid. Fails with kBrokenChannel once the
  // ring is closed, also when the close lands while the writer is parked.
  template <typename OnEnter>
  sim::Task<base::Result<uint64_t>> Write(Env env, hw::VirtAddr va, uint64_t len,
                                          sim::Duration kernel_path, OnEnter on_enter) {
    Kernel& k = *env.kernel;
    co_await k.SyscallEnter(env);
    co_await k.Spend(*env.self, kernel_path, TimeCat::kKernel);
    on_enter();
    base::Result<uint64_t> result = len;
    uint64_t done = 0;
    while (done < len) {
      while (fill_ == capacity_ && !closed_) {
        co_await writers_.Wait(env);
      }
      if (closed_) {
        result = base::ErrorCode::kBrokenChannel;
        break;
      }
      const uint64_t chunk = std::min(len - done, capacity_ - fill_);
      const uint64_t off = wpos_ % capacity_;
      const uint64_t first = std::min(chunk, capacity_ - off);
      auto s = co_await k.CopyFromUser(env, buf_pa_ + off, va + done, first);
      if (s.ok() && first < chunk) {
        s = co_await k.CopyFromUser(env, buf_pa_, va + done + first, chunk - first);
      }
      if (!s.ok()) {
        result = s.code();
        break;
      }
      wpos_ += chunk;
      fill_ += chunk;
      done += chunk;
      co_await WakeOne(env, readers_);
    }
    co_await k.SyscallExit(env);
    co_return result;
  }

  // Reads up to `len` bytes, parking while the ring is empty, open and
  // `ready()` is false. Once it may proceed, `on_ready()` runs and the
  // bytes present are copied out. Returns 0 at EOF (closed and empty, with
  // nothing `ready`) and when only `ready` ended the wait.
  template <typename Ready, typename OnReady>
  sim::Task<base::Result<uint64_t>> Read(Env env, hw::VirtAddr va, uint64_t len,
                                         sim::Duration kernel_path, Ready ready,
                                         OnReady on_ready) {
    Kernel& k = *env.kernel;
    co_await k.SyscallEnter(env);
    co_await k.Spend(*env.self, kernel_path, TimeCat::kKernel);
    while (fill_ == 0 && !closed_ && !ready()) {
      co_await readers_.Wait(env);
    }
    base::Result<uint64_t> result = uint64_t{0};
    if (fill_ > 0 || ready()) {
      on_ready();
      const uint64_t chunk = std::min(len, fill_);
      if (chunk > 0) {
        const uint64_t off = rpos_ % capacity_;
        const uint64_t first = std::min(chunk, capacity_ - off);
        auto s = co_await k.CopyToUser(env, va, buf_pa_ + off, first);
        if (s.ok() && first < chunk) {
          s = co_await k.CopyToUser(env, va + first, buf_pa_, chunk - first);
        }
        if (s.ok()) {
          rpos_ += chunk;
          fill_ -= chunk;
          result = chunk;
          co_await WakeOne(env, writers_);
        } else {
          result = s.code();
        }
      }
    }
    co_await k.SyscallExit(env);
    co_return result;
  }

  // Marks the ring closed and wakes every parked reader and writer.
  void Close(Kernel& kernel) {
    closed_ = true;
    readers_.WakeAll(kernel, std::nullopt);
    writers_.WakeAll(kernel, std::nullopt);
  }

  uint64_t fill() const { return fill_; }

 private:
  // Wakes one thread parked on `q`; the caller awaits the waker's cost,
  // which is zero (a no-op spend) when nobody is parked.
  static Kernel::SpendAwaiter WakeOne(Env env, WaitQueue& q) {
    Kernel& k = *env.kernel;
    sim::Duration cost;
    if (Thread* t = q.WakeOneThread(); t != nullptr) {
      cost = k.MakeRunnable(*t, env.self->last_cpu()) + k.costs().Cycles(60);
    }
    return k.Spend(*env.self, cost, TimeCat::kKernel);
  }

  uint64_t capacity_;
  hw::PhysAddr buf_pa_;
  uint64_t rpos_ = 0;
  uint64_t wpos_ = 0;
  uint64_t fill_ = 0;
  bool closed_ = false;
  WaitQueue readers_;
  WaitQueue writers_;
};

}  // namespace dipc::os

#endif  // DIPC_OS_BYTE_RING_H_
