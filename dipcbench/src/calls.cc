// calls: one caller, closed loop, dIPC cross-process High-policy calls with
// seeded argument sizes from 1 B to 64 KiB; then the Fig. 5 reference
// primitives at 1 B through bench/micro_harness, same CPU and another CPU.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

#include "anchors.h"
#include "dipc/proxy.h"
#include "micro_harness.h"
#include "sim/random.h"
#include "workloads.h"

namespace dipcbench {
namespace {

namespace core = dipc::core;
using dipc::base::ErrorCode;

constexpr uint64_t kMaxArg = 64 * 1024;
constexpr int kWarmup = 64;
constexpr int kCalls = 24000;
constexpr uint64_t kRegMagic = 0xD1BCCA11D1BCCA11ULL;

struct Arg {
  uint64_t len;
  uint64_t offset;  // from the start of the argument buffer
};

// Log-uniform sizes, every power of two from 1 B to 64 KiB equally likely,
// each at a seeded 8-byte aligned offset within a page, so an argument's
// line count varies with its placement as it does for real callers. Plain
// draws, not stratified ones: latency moves in whole cache lines, and with
// stratified sizes every seed would put the median call on the same line
// count and report the identical median.
std::vector<Arg> MakeArgs(uint64_t seed) {
  dipc::sim::Rng rng(seed ^ 0xA11647ULL);
  std::vector<Arg> args;
  for (int i = 0; i < kWarmup + kCalls; ++i) {
    const double x = rng.NextDouble();
    const auto len = static_cast<uint64_t>(std::exp(x * std::log(double(kMaxArg))));
    args.push_back(Arg{std::clamp<uint64_t>(len, 1, kMaxArg), 8 * rng.UniformInt(0, 511)});
  }
  return args;
}

// Caller and callee processes joined by one High-policy entry.
struct CallsWorld {
  World w{4};
  os::Process& caller;
  os::Process& callee;
  core::ProxyRef proxy;
  hw::VirtAddr buf = 0;
  Round* round = nullptr;  // where the callee's checking time goes

  CallsWorld()
      : caller(w.dipc.CreateDipcProcess("caller")), callee(w.dipc.CreateDipcProcess("callee")) {
    const core::IsolationPolicy policy = core::IsolationPolicy::High();
    core::EntryDesc entry;
    entry.name = "consume";
    entry.signature = core::EntrySignature{.in_regs = 2, .out_regs = 1, .stack_bytes = 0};
    entry.policy = policy;
    // The callee consumes the argument through the passed capability and
    // returns a checksum of what it read, so the caller can check delivery.
    entry.fn = [this](os::Env env, core::CallArgs args) -> sim::Task<uint64_t> {
      const uint64_t len = args.regs[1];
      if (len <= 8) {
        co_return args.regs[0] ^ kRegMagic;
      }
      auto s = co_await env.kernel->TouchUser(env, args.regs[0], len, hw::AccessType::kRead);
      CheckTimer t(*round);
      std::vector<std::byte> got(len);
      if (!s.ok() || !env.kernel->UserRead(*env.self, args.regs[0], got).ok()) {
        co_return 0;
      }
      co_return Fold(got);
    };
    auto handle = w.dipc.EntryRegister(callee, *w.dipc.DomDefault(callee), {entry});
    DIPC_CHECK(handle.ok());
    auto req = w.dipc.EntryRequest(caller, *handle.value(), {{entry.signature, policy}});
    DIPC_CHECK(req.ok());
    DIPC_CHECK(w.dipc.GrantCreate(*w.dipc.DomDefault(caller), *req.value().proxy_domain).ok());
    proxy = req.value().proxies[0];
    auto va = w.kernel.MapAnonymous(caller, kMaxArg + hw::kPageSize,
                                    hw::PageFlags{.writable = true});
    DIPC_CHECK(va.ok());
    buf = va.value();
  }
};

// One caller iteration, as bench/micro_harness's MeasureDipc times it: write
// the argument, derive a read capability for it, call.
sim::Task<void> CallerLoop(os::Env env, CallsWorld& cw, const std::vector<Arg>& in,
                           uint64_t seed, Spans* spans, uint32_t root, Round& r,
                           std::vector<double>& lat) {
  os::Kernel& k = *env.kernel;
  for (int i = -kWarmup; i < kCalls; ++i) {
    if (i == 0) {
      cw.w.probe.Begin();
    }
    const uint64_t seq = static_cast<uint64_t>(i + kWarmup);
    const uint64_t len = in[seq].len;
    const hw::VirtAddr va = cw.buf + in[seq].offset;
    const sim::Time t0 = k.now();
    ScopedSpan span(spans, "dipc.call", seq, root, &k);
    core::CallArgs args;
    uint64_t expect = 0;
    if (len > 8) {
      (void)co_await k.TouchUser(env, va, len, hw::AccessType::kWrite);
      {
        CheckTimer t(r);
        const std::vector<std::byte> bytes = PatternBytes(seed, seq, len);
        DIPC_CHECK(k.UserWrite(*env.self, va, bytes).ok());
        expect = Fold(bytes);
      }
      sim::Duration cap_cost;
      auto cap = k.codoms().CapFromApl(env.self->last_cpu(), env.self->process().page_table(),
                                       env.self->cap_ctx(), va, len, codoms::Perm::kRead,
                                       codoms::CapType::kSync, &cap_cost);
      DIPC_CHECK(cap.ok());
      co_await k.Spend(*env.self, cap_cost, os::TimeCat::kUser);
      env.self->cap_ctx().regs.Set(0, cap.value());
      args.regs[0] = va;
    } else {
      const uint64_t mask = len == 8 ? ~0ULL : (1ULL << (8 * len)) - 1;
      args.regs[0] = PatternWord(seed, seq, 0) & mask;
      expect = args.regs[0] ^ kRegMagic;
    }
    args.regs[1] = len;
    const uint64_t got = co_await cw.proxy.Call(env, args);
    const bool ok = env.self->TakeError() == ErrorCode::kOk && got == expect;
    ++r.attempted;
    if (!ok) {
      r.Fail("calls: call " + std::to_string(seq) + " (" + std::to_string(len) +
             " B) returned a wrong checksum or an error");
    }
    if (i >= 0) {
      lat.push_back((k.now() - t0).nanos());
    }
  }
  cw.w.probe.End();
}

// The Fig. 5 reference primitives at 1 B, and the paper_err over its anchors.
void Fig5References(Spans* spans, uint32_t root, Round& r) {
  namespace mb = dipc::bench;
  const double h0 = HostNow();
  const mb::MicroConfig same{.arg_bytes = 1, .rounds = 400, .cross_cpu = false};
  const mb::MicroConfig cross{.arg_bytes = 1, .rounds = 400, .cross_cpu = true};
  std::map<std::string, double> ns;
  uint64_t op = 0;
  // Each reference builds its own machine, so its span has no extent on the
  // workload's simulated clock.
  auto measure = [&](const char* key, auto fn) {
    ScopedSpan span(spans, "micro.fig5", op++, root);
    ns[key] = fn().roundtrip_ns;
  };
  measure("func", [&] { return mb::MeasureFunction(same); });
  measure("syscall", [&] { return mb::MeasureSyscall(same); });
  auto dipc = [](bool proc, bool high) {
    return [=] { return mb::MeasureDipc({.cross_process = proc, .high_policy = high}); };
  };
  measure("dipc_low", dipc(false, false));
  measure("dipc_high", dipc(false, true));
  measure("dipc_proc_low", dipc(true, false));
  measure("dipc_proc_high", dipc(true, true));
  measure("sem_same", [&] { return mb::MeasureSemaphore(same); });
  measure("sem_cross", [&] { return mb::MeasureSemaphore(cross); });
  measure("pipe_same", [&] { return mb::MeasurePipe(same); });
  measure("pipe_cross", [&] { return mb::MeasurePipe(cross); });
  measure("l4_same", [&] { return mb::MeasureL4(same); });
  measure("l4_cross", [&] { return mb::MeasureL4(cross); });
  measure("rpc_same", [&] { return mb::MeasureLocalRpc(same); });
  measure("rpc_cross", [&] { return mb::MeasureLocalRpc(cross); });
  r.host_s += HostNow() - h0;
  r.attempted += ns.size();

  for (const auto& [key, v] : ns) {
    r.sim["fig5." + key + "_ns"] = v;
    r.Check(v > 0, "calls: Fig. 5 reference " + key + " measured nothing");
  }
  auto ratio = [&](const std::string& name) {
    const size_t slash = name.find('/');
    return ns[name.substr(0, slash)] / ns[name.substr(slash + 1)];
  };
  double err = 0;
  char line[256];
  r.report.push_back("paper anchors (Fig. 5, 1-byte argument):");
  for (const Anchor& a : kFig5Anchors) {
    const double m = ratio(a.name);
    err += AnchorError(a, m);
    std::snprintf(line, sizeof(line), "  %-26s measured %8.2f  paper %8.2f  |ln| %.3f  (%s)",
                  a.name, m, a.paper, AnchorError(a, m), a.source);
    r.report.push_back(line);
  }
  r.sim["paper_err"] = err / static_cast<double>(std::size(kFig5Anchors));
}

}  // namespace

Round CallsRound(uint64_t seed, Spans* spans) {
  Round r;
  const uint32_t root = spans != nullptr ? spans->Begin("bench.round", 0, 0, sim::Time::Zero()) : 0;
  const std::vector<Arg> in = MakeArgs(seed);
  const double h0 = HostNow();
  std::unique_ptr<CallsWorld> cw;
  {
    ScopedSpan setup(spans, "bench.setup", 0, root);
    cw = std::make_unique<CallsWorld>();
  }
  r.setup_host_s = HostNow() - h0;
  cw->round = &r;
  std::vector<double> lat;
  lat.reserve(kCalls);
  cw->w.kernel.Spawn(
      cw->caller, "caller",
      [&](os::Env env) -> sim::Task<void> {
        co_await CallerLoop(env, *cw, in, seed, spans, root, r, lat);
      },
      /*pin_cpu=*/0);
  cw->w.Run(r);
  r.Check(cw->w.probe.ended(), "calls: the caller did not finish");
  r.ops = kCalls;
  cw->w.probe.AddLayerMetrics(kCalls, r);
  AddLatencyMetrics(kCalls, cw->w.probe.window_ns(), lat, r);
  const sim::Time end = cw->w.kernel.now();
  cw.reset();
  Fig5References(spans, root, r);
  if (spans != nullptr) {
    spans->End(root, end);
  }
  return r;
}

double CallsSetup(uint64_t) {
  const double h0 = HostNow();
  CallsWorld cw;
  return HostNow() - h0;
}

}  // namespace dipcbench
