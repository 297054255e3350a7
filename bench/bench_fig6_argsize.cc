// Figure 6: added execution time of a producer->consumer synchronous call as
// the argument size grows (2^0 .. 2^20 bytes), relative to the baseline
// function call. Copy-based primitives (Pipe, RPC) grow with size; Sem only
// pays production/consumption; dIPC passes references (capabilities) and
// stays flat until cache effects. The L1$/L2$ knees come out of the cache
// model.
#include <cstdio>
#include <string>

#include "micro_harness.h"

namespace {

using dipc::bench::MeasureDipc;
using dipc::bench::MeasureDipcUserRpc;
using dipc::bench::MeasureFunction;
using dipc::bench::MeasureLocalRpc;
using dipc::bench::MeasurePipe;
using dipc::bench::MeasureSemaphore;
using dipc::bench::MeasureSyscall;
using dipc::bench::MicroConfig;

void PrintFig6(dipc::bench::JsonEmitter& json) {
  std::printf("=== Figure 6: added time vs argument size [ns], relative to a function call ===\n");
  std::printf("%9s %9s %9s %9s %9s %9s %9s %9s %9s\n", "size[B]", "syscall", "sem!=", "pipe!=",
              "rpc!=", "dipcL=", "dipcH=", "+procL=", "userRPC");
  for (int p = 0; p <= 20; p += 2) {
    uint64_t n = 1ull << p;
    int rounds = n >= (1 << 16) ? 40 : 150;
    MicroConfig same{.arg_bytes = n, .rounds = rounds, .cross_cpu = false};
    MicroConfig cross{.arg_bytes = n, .rounds = rounds, .cross_cpu = true};
    // One metrics series per measured (primitive, size) point.
    auto point = [&](const char* series, auto&& measure) {
      json.BeginSeries(std::string(series) + "_" + std::to_string(n));
      return measure().roundtrip_ns;
    };
    auto dipc = [&](bool cross_process, bool high_policy) {
      return [=] {
        return MeasureDipc({.cross_process = cross_process, .high_policy = high_policy,
                            .arg_bytes = n, .rounds = rounds});
      };
    };
    double func = point("func", [&] { return MeasureFunction(same); });
    double sys = point("syscall", [&] { return MeasureSyscall(same); }) - func;
    double sem = point("sem", [&] { return MeasureSemaphore(cross); }) - func;
    double pipe = point("pipe", [&] { return MeasurePipe(cross); }) - func;
    double rpc = point("rpc", [&] { return MeasureLocalRpc(cross); }) - func;
    double dl = point("dipc_low", dipc(false, false)) - func;
    double dh = point("dipc_high", dipc(false, true)) - func;
    double dpl = point("dipc_proc_low", dipc(true, false)) - func;
    double urpc = point("user_rpc", [&] { return MeasureDipcUserRpc(cross); }) - func;
    std::printf("%9llu %9.0f %9.0f %9.0f %9.0f %9.1f %9.1f %9.1f %9.0f\n",
                static_cast<unsigned long long>(n), sys, sem, pipe, rpc, dl, dh, dpl, urpc);
    json.Row("syscall", n, sys);
    json.Row("sem", n, sem);
    json.Row("pipe", n, pipe);
    json.Row("rpc", n, rpc);
    json.Row("dipc_low", n, dl);
    json.Row("dipc_high", n, dh);
    json.Row("dipc_proc_low", n, dpl);
    json.Row("user_rpc", n, urpc);
  }
  std::printf("(L1$ = 32 KB, L2$ = 256 KB: expect knees there for the copying primitives)\n\n");
}

}  // namespace

int main(int argc, char** argv) {
  dipc::bench::JsonEmitter json("fig6_argsize", argc, argv);
  PrintFig6(json);
  return 0;
}
