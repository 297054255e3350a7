// Device-driver isolation case study (§7.3): a netpipe-style ping-pong over
// an Infiniband-like NIC (rsocket flavor), with the user-level driver either
// inlined into the application or isolated behind different mechanisms.
//
// Per round the application performs two driver operations (post_send and
// poll/complete_recv, zero-copy against registered memory). The isolation
// variants change only how those two operations are invoked:
//
//   kInline      — direct function calls (the unprotected baseline).
//   kDipcDomain  — driver in a separate CODOMs domain of the same process;
//                  asymmetric minimal policy (the paper's "dIPC" line).
//   kDipcProcess — driver in a separate dIPC process ("dIPC +proc").
//   kKernel      — driver in the kernel: one syscall per operation.
//   kSemaphore   — driver service thread in another process, shared-memory
//                  requests, futex signalling (no payload copies).
//   kPipe        — same, but requests and payloads cross a pipe (copies).
//   kChannel     — same, but requests cross a zero-copy capability channel
//                  (src/chan/ Channel) and completions come back on a second
//                  one in the reverse direction, sharing one domain-tag
//                  trio: ownership grants instead of copies,
//                  wake-suppressed futex signalling, and — when `burst` > 1
//                  — batched descriptor publication (SendBatch/RecvBatch)
//                  amortizing the per-request software toll.
#ifndef DIPC_APPS_NETPIPE_NETPIPE_H_
#define DIPC_APPS_NETPIPE_NETPIPE_H_

#include <cstdint>
#include <string_view>

namespace dipc::apps {

enum class DriverIsolation {
  kInline,
  kDipcDomain,
  kDipcProcess,
  kKernel,
  kSemaphore,
  kPipe,
  kChannel,
};

constexpr std::string_view DriverIsolationName(DriverIsolation d) {
  switch (d) {
    case DriverIsolation::kInline: return "inline (no isolation)";
    case DriverIsolation::kDipcDomain: return "dIPC";
    case DriverIsolation::kDipcProcess: return "dIPC +proc";
    case DriverIsolation::kKernel: return "Kernel";
    case DriverIsolation::kSemaphore: return "Semaphore (=CPU)";
    case DriverIsolation::kPipe: return "Pipe (=CPU)";
    case DriverIsolation::kChannel: return "Chan (=CPU)";
  }
  return "?";
}

struct NetpipeConfig {
  DriverIsolation isolation = DriverIsolation::kInline;
  uint64_t transfer_bytes = 64;
  int rounds = 128;
  // kChannel only: driver requests posted per batched publish. 1 keeps the
  // NPtcp ping-pong semantics; >1 models the streaming mode, where post_send
  // requests are batched toward the driver (doorbell batching).
  int burst = 1;
};

struct NetpipeResult {
  double latency_us = 0;        // NPtcp-style: round trip / 2
  double bandwidth_mbps = 0;    // transfer_bytes / one-way time
  double round_trip_us = 0;
};

NetpipeResult RunNetpipe(const NetpipeConfig& config);

}  // namespace dipc::apps

#endif  // DIPC_APPS_NETPIPE_NETPIPE_H_
