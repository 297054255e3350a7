// POSIX pipe: a kernel ring buffer with copy-in/copy-out semantics — the
// "argument immutability by copying" IPC design point of §2.2.
#ifndef DIPC_OS_PIPE_H_
#define DIPC_OS_PIPE_H_

#include <cstdint>
#include <memory>

#include "base/result.h"
#include "os/byte_ring.h"
#include "os/kernel.h"
#include "sim/task.h"

namespace dipc::os {

class Pipe {
 public:
  static constexpr uint64_t kCapacity = 64 * 1024;
  // Kernel pipe path per op: locking, vfs dispatch, buffer management.
  static constexpr sim::Duration kKernelPath = sim::Duration::Nanos(260.0);

  explicit Pipe(Kernel& kernel) : kernel_(kernel), ring_(kernel, kCapacity) {}

  // Blocking write of the full `len` bytes (POSIX semantics for <= PIPE_BUF
  // generalized: we loop until everything is in the ring). Fails with
  // kBrokenChannel after CloseWriteEnd.
  sim::Task<base::Result<uint64_t>> Write(Env env, hw::VirtAddr va, uint64_t len);

  // Blocking read of up to `len` bytes; returns 0 at EOF (writer closed).
  sim::Task<base::Result<uint64_t>> Read(Env env, hw::VirtAddr va, uint64_t len);

  void CloseWriteEnd();

  uint64_t fill() const { return ring_.fill(); }

 private:
  Kernel& kernel_;
  ByteRing ring_;
};

// fd-table wrappers.
class PipeReadEnd : public KernelObject {
 public:
  explicit PipeReadEnd(std::shared_ptr<Pipe> p) : pipe_(std::move(p)) {}
  std::string_view type_name() const override { return "pipe[read]"; }
  Pipe& pipe() { return *pipe_; }

 private:
  std::shared_ptr<Pipe> pipe_;
};

class PipeWriteEnd : public KernelObject {
 public:
  explicit PipeWriteEnd(std::shared_ptr<Pipe> p) : pipe_(std::move(p)) {}
  std::string_view type_name() const override { return "pipe[write]"; }
  Pipe& pipe() { return *pipe_; }

 private:
  std::shared_ptr<Pipe> pipe_;
};

}  // namespace dipc::os

#endif  // DIPC_OS_PIPE_H_
