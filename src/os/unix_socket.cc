#include "os/unix_socket.h"

#include <utility>

namespace dipc::os {

UnixStreamCore::UnixStreamCore(Kernel& kernel)
    : kernel_(kernel), dirs_{Direction(kernel), Direction(kernel)} {}

std::pair<std::shared_ptr<UnixStreamEnd>, std::shared_ptr<UnixStreamEnd>>
UnixStreamCore::CreatePair(Kernel& kernel) {
  auto core = std::make_shared<UnixStreamCore>(kernel);
  return {std::make_shared<UnixStreamEnd>(core, 0), std::make_shared<UnixStreamEnd>(core, 1)};
}

sim::Task<base::Result<uint64_t>> UnixStreamEnd::Send(
    Env env, hw::VirtAddr va, uint64_t len, std::vector<std::shared_ptr<KernelObject>> handles) {
  UnixStreamCore::Direction& d = tx();
  // Ancillary data rides along, queued once the kernel path is paid.
  return d.ring.Write(env, va, len, UnixStreamCore::kKernelPath,
                      [&d, handles = std::move(handles)]() mutable {
                        for (auto& h : handles) {
                          d.passed_objects.push_back(std::move(h));
                        }
                      });
}

sim::Task<base::Result<uint64_t>> UnixStreamEnd::Recv(
    Env env, hw::VirtAddr va, uint64_t len,
    std::vector<std::shared_ptr<KernelObject>>* handles_out) {
  UnixStreamCore::Direction& d = rx();
  // An ancillary-only message ends the wait too (and reads 0 bytes).
  return d.ring.Read(
      env, va, len, UnixStreamCore::kKernelPath, [&d] { return !d.passed_objects.empty(); },
      [&d, handles_out] {
        if (handles_out == nullptr) {
          return;
        }
        while (!d.passed_objects.empty()) {
          handles_out->push_back(std::move(d.passed_objects.front()));
          d.passed_objects.pop_front();
        }
      });
}

sim::Task<base::Status> UnixStreamEnd::RecvExact(
    Env env, hw::VirtAddr va, uint64_t len,
    std::vector<std::shared_ptr<KernelObject>>* handles_out) {
  uint64_t done = 0;
  while (done < len) {
    auto r = co_await Recv(env, va + done, len - done, handles_out);
    if (!r.ok()) {
      co_return r.status();
    }
    if (r.value() == 0) {
      co_return base::ErrorCode::kBrokenChannel;
    }
    done += r.value();
  }
  co_return base::Status::Ok();
}

void UnixStreamEnd::Close() {
  // Both directions see the hangup.
  for (auto& d : core_->dirs_) {
    d.ring.Close(core_->kernel_);
  }
}

sim::Task<base::Result<std::shared_ptr<UnixStreamEnd>>> UnixListener::Connect(
    Env env, const std::string& path) {
  Kernel& k = *env.kernel;
  co_await k.SyscallEnter(env);
  co_await k.Spend(*env.self, UnixStreamCore::kKernelPath, TimeCat::kKernel);
  auto obj = k.LookupPath(path);
  auto listener = std::dynamic_pointer_cast<UnixListener>(obj);
  if (listener == nullptr) {
    co_await k.SyscallExit(env);
    co_return base::ErrorCode::kNotFound;
  }
  auto [client, server] = UnixStreamCore::CreatePair(k);
  listener->pending_.push_back(std::move(server));
  if (Thread* a = listener->acceptors_.WakeOneThread(); a != nullptr) {
    sim::Duration ipi = k.MakeRunnable(*a, env.self->last_cpu());
    co_await k.Spend(*env.self, ipi, TimeCat::kKernel);
  }
  co_await k.SyscallExit(env);
  co_return client;
}

sim::Task<base::Result<std::shared_ptr<UnixStreamEnd>>> UnixListener::Accept(Env env) {
  Kernel& k = *env.kernel;
  co_await k.SyscallEnter(env);
  co_await k.Spend(*env.self, UnixStreamCore::kKernelPath, TimeCat::kKernel);
  while (pending_.empty()) {
    co_await acceptors_.Wait(env);
  }
  auto end = std::move(pending_.front());
  pending_.pop_front();
  co_await k.SyscallExit(env);
  co_return end;
}

}  // namespace dipc::os
