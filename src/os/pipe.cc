#include "os/pipe.h"

namespace dipc::os {

sim::Task<base::Result<uint64_t>> Pipe::Write(Env env, hw::VirtAddr va, uint64_t len) {
  return ring_.Write(env, va, len, kKernelPath, [] {});
}

sim::Task<base::Result<uint64_t>> Pipe::Read(Env env, hw::VirtAddr va, uint64_t len) {
  return ring_.Read(env, va, len, kKernelPath, [] { return false; }, [] {});
}

void Pipe::CloseWriteEnd() {
  // Readers blocked on an empty pipe must see EOF. There is no Env here;
  // the close is a kernel-side wake with no waker CPU.
  ring_.Close(kernel_);
}

}  // namespace dipc::os
