// fabric: a ServiceFabric with 128 tenant client domains, 4 worker domains
// and shared tag trios. Closed loop: one thread per tenant issues Calls back
// to back, request sizes seeded from 64 B to 2 KiB; the handler touches the
// request and checks it against what its caller sent.
//
// The machine has two CPUs. With four, the response leg of a Call (worker
// send, dispatcher wake, client wake) is either served in the current pass of
// a run queue or waits for the next one, in about equal shares: latency has
// two modes of similar weight, and the median lies between them and moves by
// up to a quarter with the seed. With two CPUs the run queues stay long, most
// Calls wait the same number of passes, and the median lies inside one mode.
#include <memory>

#include "fabric/fabric.h"
#include "workloads.h"

namespace dipcbench {
namespace {

namespace chan = dipc::chan;
namespace fabric = dipc::fabric;

constexpr uint32_t kTenants = 128;
constexpr uint32_t kWorkers = 4;
constexpr int kCallsPerTenant = 128;
constexpr uint64_t kTotal = uint64_t{kTenants} * kCallsPerTenant;
constexpr uint64_t kWarmup = kTotal / 4;
constexpr uint64_t kMinReq = 64;
constexpr uint64_t kMaxReq = 2048;
// Serve() answers every request with FabricConfig::resp_bytes, so the
// response size is one value per fabric, not per call.
constexpr uint64_t kRespBytes = 1024;

constexpr uint32_t kCpus = 2;

struct FabricWorld {
  World w{kCpus};
  std::vector<os::Process*> clients;
  std::vector<os::Process*> workers;
  std::shared_ptr<fabric::ServiceFabric> fab;

  FabricWorld() {
    for (uint32_t c = 0; c < kTenants; ++c) {
      clients.push_back(&w.dipc.CreateDipcProcess("tenant"));
    }
    for (uint32_t i = 0; i < kWorkers; ++i) {
      workers.push_back(&w.dipc.CreateDipcProcess("worker"));
    }
    auto f = fabric::ServiceFabric::Create(w.dipc, clients, workers,
                                           {.req_slots = 4,
                                            .req_bytes = kMaxReq,
                                            .resp_slots = 4,
                                            .resp_bytes = kRespBytes,
                                            .shared_trio = true});
    DIPC_CHECK(f.ok());
    fab = f.value();
  }
};

struct State {
  Spans* spans;
  uint32_t root;
  Round& r;
  std::vector<std::vector<uint64_t>> req_len{};  // per tenant, per call
  // Indexed by opid (the fabric numbers calls 1, 2, ... in issue order).
  std::vector<uint64_t> len_of = std::vector<uint64_t>(kTotal + 1);
  std::vector<uint32_t> call_span = std::vector<uint32_t>(kTotal + 1);
  std::vector<uint32_t> handled = std::vector<uint32_t>(kTotal + 1);
  std::vector<double> lat{};
  uint64_t completed = 0;
  bool window = false;
  double handler_ns = 0;
  uint32_t remaining = kTenants;
};

sim::Task<void> Client(os::Env env, FabricWorld& fw, State& st, uint32_t c) {
  os::Kernel& k = *env.kernel;
  for (int i = 0; i < kCallsPerTenant; ++i) {
    const uint64_t len = st.req_len[c][i];
    // Call() numbers the operation before its first suspension.
    const uint64_t opid = fw.fab->calls() + 1;
    DIPC_CHECK(opid <= kTotal);
    st.len_of[opid] = len;
    const bool measured = st.window;
    const sim::Time t0 = k.now();
    dipc::base::Status s = dipc::base::ErrorCode::kFault;
    {
      ScopedSpan span(st.spans, "fabric.call", opid, st.root, &k);
      st.call_span[opid] = span.id();
      s = co_await fw.fab->Call(env, c, len);
    }
    ++st.r.attempted;
    if (!s.ok()) {
      st.r.Fail("fabric: call " + std::to_string(opid) + " failed");
    }
    if (measured) {
      st.lat.push_back((k.now() - t0).nanos());
    }
    if (++st.completed == kWarmup) {
      fw.w.probe.Begin();
      st.window = true;
    }
    if (st.completed == kTotal) {
      fw.w.probe.End();
      st.window = false;
    }
  }
  if (--st.remaining == 0) {
    fw.fab->Close();
  }
}

}  // namespace

Round FabricRound(uint64_t seed, Spans* spans) {
  Round r;
  const uint32_t root = spans != nullptr ? spans->Begin("bench.round", 0, 0, sim::Time::Zero()) : 0;
  State st{.spans = spans, .root = root, .r = r};
  // Request lengths uniform in [64 B, 2 KiB], dealt to tenants in turn.
  const std::vector<double> u = StratifiedUnit(seed ^ 0xFAB41CULL, kTotal);
  st.req_len.resize(kTenants);
  for (size_t i = 0; i < kTotal; ++i) {
    st.req_len[i % kTenants].push_back(
        kMinReq + static_cast<uint64_t>(u[i] * static_cast<double>(kMaxReq - kMinReq + 1)));
  }
  st.lat.reserve(kTotal - kWarmup);
  const double h0 = HostNow();
  std::unique_ptr<FabricWorld> fw;
  {
    ScopedSpan setup(spans, "bench.setup", 0, root);
    fw = std::make_unique<FabricWorld>();
  }
  r.setup_host_s = HostNow() - h0;

  // The handler touches the request and checks its opid header and length
  // against what the issuing client sent; each opid is served exactly once.
  fabric::ServiceFabric::Handler handler = [&st](os::Env env,
                                                 const chan::Msg& m) -> sim::Task<void> {
    os::Kernel& k = *env.kernel;
    uint64_t opid = 0;
    bool known = false;
    {
      CheckTimer t(st.r);
      const bool read =
          k.UserRead(*env.self, m.va, std::as_writable_bytes(std::span(&opid, 1))).ok();
      known = read && opid >= 1 && opid <= kTotal;
      if (!(known && st.handled[opid]++ == 0 && m.len == st.len_of[opid])) {
        st.r.Fail("fabric: request " + std::to_string(opid) +
                  " served twice, unknown or with the wrong length");
      }
    }
    const sim::Time t0 = k.now();
    {
      ScopedSpan span(st.spans, "app.handler", opid, known ? st.call_span[opid] : st.root, &k);
      (void)co_await k.TouchUser(env, m.va, m.len, hw::AccessType::kRead);
    }
    if (st.window) {
      st.handler_ns += (k.now() - t0).nanos();
    }
  };
  fw->fab->StartAllDispatchers();
  for (uint32_t wk = 0; wk < kWorkers; ++wk) {
    for (uint32_t c = 0; c < kTenants; ++c) {
      fabric::ServiceFabric* fab = fw->fab.get();
      fw->w.kernel.Spawn(*fw->workers[wk], "serve",
                         [fab, c, wk, &handler](os::Env env) -> sim::Task<void> {
                           co_await fab->Serve(env, c, wk, handler);
                         });
    }
  }
  for (uint32_t c = 0; c < kTenants; ++c) {
    fw->w.kernel.Spawn(*fw->clients[c], "client", [&, c](os::Env env) -> sim::Task<void> {
      co_await Client(env, *fw, st, c);
    });
  }
  fw->w.Run(r);

  const fabric::ServiceFabric& fab = *fw->fab;
  r.Check(fw->w.probe.ended(), "fabric: the measured window never closed");
  r.Check(fab.calls() == kTotal && fab.completions() == fab.calls(),
          "fabric: calls " + std::to_string(fab.calls()) + " != completions " +
              std::to_string(fab.completions()));
  r.Check(fab.duplicate_completions() == 0 && fab.failures() == 0,
          "fabric: duplicate or failed completions");
  for (uint64_t opid = 1; opid <= kTotal; ++opid) {
    if (st.handled[opid] != 1) {
      r.Fail("fabric: request " + std::to_string(opid) + " served " +
             std::to_string(st.handled[opid]) + " times");
    }
  }
  if (!fw->w.probe.ended()) {
    return r;
  }
  const double ops = static_cast<double>(kTotal - kWarmup);
  r.ops = ops;
  fw->w.probe.AddLayerMetrics(ops, r);
  AddLatencyMetrics(ops, fw->w.probe.window_ns(), st.lat, r);
  r.sim["fabric.handler_ns"] = st.handler_ns / ops;
  const RegistryView& reg = fw->w.probe.registry();
  auto sum = [&](const std::map<std::string, double>& m, const std::string& prefix,
                 const std::string& suffix) {
    // Plane-level entries only ("fanout/<id>/<suffix>"), not per-endpoint ones.
    double total = 0;
    for (const auto& [name, x] : m) {
      if (name.rfind(prefix, 0) == 0 && name.size() > suffix.size() &&
          name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0 &&
          name.find('/', prefix.size()) == name.size() - suffix.size()) {
        total += x;
      }
    }
    return total;
  };
  r.sim["fanout.credit_stalls"] = sum(reg.counters, "fanout/", "/blocked_on_credit") / ops;
  r.sim["fanin.credit_stalls"] = sum(reg.counters, "fanin/", "/blocked_on_credit") / ops;
  r.sim["fanout.credit_stall_ns"] = sum(reg.hist_sum_ns, "fanout/", "/credit_stall_ns") / ops;
  r.sim["fabric.retries"] = sum(reg.counters, "fabric/", "/retries") / ops;
  r.sim["fabric.duplicate_completions"] =
      sum(reg.counters, "fabric/", "/duplicate_completions") / ops;
  if (spans != nullptr) {
    spans->End(root, fw->w.kernel.now());
  }
  return r;
}

double FabricSetup(uint64_t) {
  const double h0 = HostNow();
  FabricWorld fw;
  return HostNow() - h0;
}

}  // namespace dipcbench
