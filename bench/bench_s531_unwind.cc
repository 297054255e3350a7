// §5.3.1's co-optimization experiment, run natively on the host: exception
// recovery by saving registers (setjmp) vs a C++ `try` statement around a
// simple call. The paper measured try-based code ~2.5x faster because the
// compiler reconstructs state from constants and stack data on the (cold)
// error path instead of always saving registers.
//
// This is the one benchmark in the suite measuring *real* host time: each
// variant is timed with std::chrono::steady_clock over a fixed call count,
// so its numbers vary with the host and from run to run.
//
// Pass --json to also write BENCH_s531_unwind.json.
#include <chrono>
#include <csetjmp>
#include <cstdio>

#include "micro_harness.h"

namespace {

// Compiler barrier: `x` must be live in a register here, so the compiler
// can neither fold the value nor drop the work that produced it.
inline void KeepLive(unsigned& x) { asm volatile("" : "+r"(x)); }

// A small opaque callee, like the paper's "simple function". Unsigned, so
// the accumulated value wraps instead of overflowing.
__attribute__((noinline)) unsigned SimpleFunction(unsigned x) {
  KeepLive(x);
  return x * 3 + 1;
}

template <typename Fn>
double TimePerCallNs(Fn&& fn) {
  constexpr int kIters = 2000000;
  auto t0 = std::chrono::steady_clock::now();
  unsigned acc = 0;
  for (int i = 0; i < kIters; ++i) {
    acc = fn(acc);
  }
  KeepLive(acc);
  auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::nano>(t1 - t0).count() / kIters;
}

}  // namespace

int main(int argc, char** argv) {
  dipc::bench::JsonEmitter json("s531_unwind", argc, argv);
  // Host-timed code emits no simulator counters; the series boundaries keep
  // the --metrics schema uniform with the simulated benches.
  json.BeginSeries("setjmp_guarded_call");
  double setjmp_ns = TimePerCallNs([](unsigned acc) {
    std::jmp_buf env;
    if (setjmp(env) == 0) {  // always saves the register state
      acc += SimpleFunction(acc);
    } else {
      acc = 0;  // recovery path (never taken here)
    }
    return acc;
  });
  json.BeginSeries("try_guarded_call");
  double try_ns = TimePerCallNs([](unsigned acc) {
    try {  // zero-cost until thrown: nothing saved on the hot path
      acc += SimpleFunction(acc);
    } catch (...) {
      acc = 0;
    }
    return acc;
  });
  double ratio = try_ns > 0 ? setjmp_ns / try_ns : 0;
  std::printf("=== §5.3.1: setjmp vs C++ try recovery around a simple call (host time) ===\n");
  std::printf("setjmp-guarded call : %7.2f ns/call\n", setjmp_ns);
  std::printf("try-guarded call    : %7.2f ns/call\n", try_ns);
  std::printf("setjmp / try        : %7.2fx   (paper: try ~2.5x faster)\n\n", ratio);
  json.Row("setjmp_guarded_call", 0, setjmp_ns);
  json.Row("try_guarded_call", 0, try_ns);
  json.Row("setjmp_over_try_x1000", 0, ratio * 1000.0);
  return 0;
}
