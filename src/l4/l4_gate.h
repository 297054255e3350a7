// L4-style synchronous IPC (Fiasco.OC flavor, §2.2's "L4" baseline).
//
// Rendezvous semantics: Call blocks until a server is receiving, transfers
// the message in (virtual) registers — no kernel buffering, no memory
// copies — and switches directly to the callee with time-slice donation.
// This is the classic minimal-kernel-path design point: much faster than
// POSIX IPC, still ~474x slower than a function call (§2.2).
#ifndef DIPC_L4_L4_GATE_H_
#define DIPC_L4_L4_GATE_H_

#include <array>
#include <cstdint>
#include <deque>

#include "base/result.h"
#include "os/kernel.h"
#include "sim/task.h"

namespace dipc::l4 {

// Message registers: 8x64-bit payload words, like L4's MRs (data "inlined in
// registers", §2.2).
struct Message {
  std::array<uint64_t, 8> mr{};
};

class L4Gate : public os::KernelObject {
 public:
  explicit L4Gate(os::Kernel& kernel) : kernel_(kernel) {}

  std::string_view type_name() const override { return "l4-gate"; }

  // Kernel IPC path per crossing: capability lookup, rights check, message
  // register transfer, scheduling decision. Calibrated so a same-CPU
  // round trip lands at ~948 ns = 474 x 2 ns (§2.2).
  static constexpr sim::Duration kIpcPath = sim::Duration::Nanos(274.0);

  // Client: synchronous call (send + closed wait for the reply).
  sim::Task<base::Result<Message>> Call(os::Env env, const Message& msg);

  // Server: blocks for the first request (open wait).
  sim::Task<Message> Recv(os::Env env);

  // Server: atomically replies to the last received request and waits for
  // the next one (L4's reply_and_wait; donates the time slice back to the
  // caller when it sits on the same CPU).
  sim::Task<Message> ReplyWait(os::Env env, const Message& reply);

 private:
  struct PendingCall {
    os::Thread* caller;
    Message request;
    Message reply;
    bool replied = false;
  };

  // Pops the next request (queue must be non-empty) into in_service_.
  Message PopRequest();

  os::Kernel& kernel_;
  std::deque<PendingCall*> queue_;  // callers waiting for a server
  PendingCall* in_service_ = nullptr;
  // Servers parked in an IPC receive. A raw WaitQueue, not an os::Futex: the
  // wait is the rendezvous inside L4's own kernel IPC path (already charged
  // as kIpcPath), and a call wakes the server by direct handoff, not by a
  // FUTEX_WAKE.
  os::WaitQueue server_wait_;
};

}  // namespace dipc::l4

#endif  // DIPC_L4_L4_GATE_H_
