// oltp: the Fig. 8 web stack through apps::RunOltp, in-memory and on-disk DB
// at 16 threads (the paper's peak), in Linux, dIPC and Ideal modes, over
// fixed simulated windows. RunOltp builds and owns its machine, so only its
// result, the obs::Registry and the fault injector are visible from here.
#include <cstdio>

#include "anchors.h"
#include "apps/oltp/oltp.h"
#include "fault/fault.h"
#include "obs/metrics.h"
#include "workloads.h"

namespace dipcbench {
namespace {

namespace apps = dipc::apps;
using apps::DbStorage;
using apps::OltpMode;
using apps::OltpResult;

constexpr int kThreads = 16;
constexpr double kWarmupMs = 40;
constexpr double kMeasureMs = 300;
constexpr OltpMode kModes[] = {OltpMode::kLinuxIpc, OltpMode::kDipc, OltpMode::kIdeal};
constexpr DbStorage kStorages[] = {DbStorage::kDisk, DbStorage::kMemory};

apps::OltpConfig Config(OltpMode mode, DbStorage storage, uint64_t seed, bool setup_only) {
  apps::OltpConfig c;
  c.mode = mode;
  c.storage = storage;
  c.threads = kThreads;
  c.seed = seed * 2 + (storage == DbStorage::kDisk ? 0 : 1);
  c.warmup = sim::Duration::Millis(setup_only ? 0 : kWarmupMs);
  c.measure = sim::Duration::Millis(setup_only ? 0 : kMeasureMs);
  return c;
}

const char* Key(OltpMode m) {
  return m == OltpMode::kLinuxIpc ? "linux" : m == OltpMode::kDipc ? "dipc" : "ideal";
}

// Results of one mode summed over both DB configurations.
struct ModeSum {
  double ops = 0;
  double latency_ns_x_ops = 0;
  double cross_domain_calls = 0;
  dipc::os::TimeBreakdown breakdown;
  RegistryView reg;  // registry counters summed over both runs
  OltpResult AsResult() const {
    OltpResult r;
    r.breakdown = breakdown;
    return r;
  }
};

}  // namespace

Round OltpRound(uint64_t seed, Spans* spans) {
  Round r;
  const uint32_t root = spans != nullptr ? spans->Begin("bench.round", 0, 0, sim::Time::Zero()) : 0;
  {
    ScopedSpan setup(spans, "bench.setup", 0, root);
    r.setup_host_s = OltpSetup(seed);
  }
  std::map<OltpMode, ModeSum> sum;
  std::map<std::pair<OltpMode, DbStorage>, OltpResult> res;
  const double h0 = HostNow();
  uint64_t op = 0;
  for (DbStorage storage : kStorages) {
    for (OltpMode mode : kModes) {
      // The registry is zeroed at each run boundary, so its counters cover
      // one RunOltp (warm-up included: RunOltp keeps no separate window).
      dipc::obs::Registry::Default().Reset();
      OltpResult o;
      {
        ScopedSpan span(spans, "apps.run_oltp", op++, root);
        o = apps::RunOltp(Config(mode, storage, seed, /*setup_only=*/false));
      }
      res[{mode, storage}] = o;
      ModeSum& s = sum[mode];
      s.ops += static_cast<double>(o.operations);
      s.latency_ns_x_ops += o.avg_latency_ms * 1e6 * static_cast<double>(o.operations);
      s.cross_domain_calls += static_cast<double>(o.cross_domain_calls);
      s.breakdown += o.breakdown;
      const double h_reg = HostNow();
      const RegistryView v = RegistryView::Take();
      for (const auto& [name, x] : v.counters) {
        s.reg.counters[name] += x;
      }
      r.sim["obs.registry_entries"] = static_cast<double>(v.entries);
      r.sim["obs.snapshot_bytes"] = static_cast<double>(v.snapshot_bytes);
      r.attempted += o.operations;
      const std::string what = std::string(Key(mode)) + "/" +
                               (storage == DbStorage::kDisk ? "disk" : "mem");
      r.Check(o.operations > 0, "oltp: " + what + " completed no operation");
      r.Check(o.requests_failed == 0, "oltp: " + what + " failed requests");
      r.Check(o.faults_injected == 0 && v.Counter("fault/injected") == 0 &&
                  dipc::fault::Injector::Global().fire_count() == 0,
              "oltp: " + what + " injected faults");
      r.host_s -= HostNow() - h_reg;  // the registry read is the benchmark's, not the workload's
    }
  }
  // Every RunOltp builds its own machine first. Their set-up, timed above
  // as the same six calls with empty windows, comes off host_s.
  r.host_s += HostNow() - h0 - r.setup_host_s;

  const double window_s = kMeasureMs / 1e3;
  const ModeSum& lx = sum[OltpMode::kLinuxIpc];
  const ModeSum& dp = sum[OltpMode::kDipc];
  const ModeSum& id = sum[OltpMode::kIdeal];
  r.ops = dp.ops;
  // Operations per simulated second of each window, summed over both DBs.
  r.sim["sim_ops_per_s"] = dp.ops / window_s;
  // RunOltp reports only the mean latency of a window; both percentiles
  // carry the ops-weighted mean of the dIPC runs.
  const double mean_ns = dp.ops > 0 ? dp.latency_ns_x_ops / dp.ops : 0;
  r.sim["sim_lat_p50_ns"] = mean_ns;
  r.sim["sim_lat_p99_ns"] = mean_ns;
  r.sim["sim.lat_samples"] = dp.ops;

  auto ops_of = [&](OltpMode m, DbStorage s) {
    return static_cast<double>(res[{m, s}].operations);
  };
  std::map<std::string, double> measured;
  measured["speedup_disk"] =
      ops_of(OltpMode::kDipc, DbStorage::kDisk) / ops_of(OltpMode::kLinuxIpc, DbStorage::kDisk);
  measured["speedup_mem"] = ops_of(OltpMode::kDipc, DbStorage::kMemory) /
                            ops_of(OltpMode::kLinuxIpc, DbStorage::kMemory);
  measured["dipc_vs_ideal"] = std::min(
      ops_of(OltpMode::kDipc, DbStorage::kDisk) / ops_of(OltpMode::kIdeal, DbStorage::kDisk),
      ops_of(OltpMode::kDipc, DbStorage::kMemory) / ops_of(OltpMode::kIdeal, DbStorage::kMemory));
  measured["calls_per_op"] = dp.ops > 0 ? dp.cross_domain_calls / dp.ops : 0;
  // 7.5: about 211 crossings per operation (212 by construction). Checked
  // over both DB windows together: operations in flight at a window's edges
  // move one window's ratio by up to about 2, which a single on-disk window
  // of ~800 operations does not average out.
  r.Check(measured["calls_per_op"] >= 211 && measured["calls_per_op"] <= 213,
          "oltp: dIPC made " + std::to_string(measured["calls_per_op"]) +
              " cross-domain calls per op, outside [211, 213] (7.5)");
  double err = 0;
  char line[256];
  r.report.push_back("paper anchors (Fig. 8 at 16 threads, 7.5):");
  for (const Anchor& a : kOltpAnchors) {
    const double m = measured[a.name];
    err += AnchorError(a, m);
    std::snprintf(line, sizeof(line), "  %-14s measured %8.3f  paper %s%8.2f  err %.3f  (%s)",
                  a.name, m, a.at_least ? ">=" : "  ", a.paper, AnchorError(a, m), a.source);
    r.report.push_back(line);
  }
  r.report.push_back(
      "the cost model is calibrated against, and unvalidated beyond, these anchors");
  r.sim["paper_err"] = err / static_cast<double>(std::size(kOltpAnchors));

  r.sim["apps.oltp.linux_ops_per_s"] = lx.ops / window_s;
  r.sim["apps.oltp.ideal_ops_per_s"] = id.ops / window_s;
  r.sim["apps.oltp.dipc_vs_ideal"] = id.ops > 0 ? dp.ops / id.ops : 0;
  r.sim["apps.oltp.speedup_disk"] = measured["speedup_disk"];
  r.sim["apps.oltp.speedup_mem"] = measured["speedup_mem"];
  r.sim["apps.oltp.calls_per_op"] = measured["calls_per_op"];
  for (OltpMode m : kModes) {
    const OltpResult s = sum[m].AsResult();
    const std::string p = std::string("apps.oltp.") + Key(m) + ".";
    r.sim[p + "user_frac"] = s.UserFrac();
    r.sim[p + "kernel_frac"] = s.KernelFrac();
    r.sim[p + "idle_frac"] = s.IdleFrac();
  }

  // Layer metrics seen from outside RunOltp. The Fig. 2 buckets cover the
  // measured window of the Linux runs, per Linux op (the baseline the paper
  // anchors compare against); registry counts cover warm-up and window, so
  // they are scaled to the window's share of the run.
  using dipc::os::TimeCat;
  const double window_share = kMeasureMs / (kWarmupMs + kMeasureMs);
  auto bucket = [&](const ModeSum& s, TimeCat c) { return s.breakdown[c].nanos() / s.ops; };
  r.sim["os.user_ns"] = bucket(lx, TimeCat::kUser);
  r.sim["os.syscall_ns"] =
      bucket(lx, TimeCat::kSyscallCrossing) + bucket(lx, TimeCat::kSyscallDispatch);
  r.sim["os.kernel_ns"] = bucket(lx, TimeCat::kKernel);
  r.sim["os.sched_ns"] = bucket(lx, TimeCat::kSchedule);
  r.sim["os.pt_switch_ns"] = bucket(lx, TimeCat::kPageTableSwitch);
  r.sim["os.idle_ns"] = bucket(lx, TimeCat::kIdle);
  r.sim["dipc.proxy_ns"] = bucket(dp, TimeCat::kProxy);
  r.sim["dipc.cross_domain_calls"] = measured["calls_per_op"];
  if (spans != nullptr) {
    spans->End(root, sim::Time::Zero());
  }
  auto reg_per_op = [&](const ModeSum& s, double count) { return count * window_share / s.ops; };
  const RegistryView& lr = lx.reg;
  r.sim["os.futex_waits"] = reg_per_op(lx, lr.FutexWaits());
  r.sim["os.futex_wakes"] = reg_per_op(lx, lr.FutexWakes());
  r.sim["os.sched.migrations"] = reg_per_op(lx, lr.Counter("os/sched/migrations"));
  r.sim["dipc.proxy_calls"] = reg_per_op(dp, dp.reg.ProxyCalls());
  r.sim["codoms.mints"] = reg_per_op(dp, dp.reg.Counter("codoms/mints"));
  r.sim["codoms.rebinds"] = reg_per_op(dp, dp.reg.Counter("codoms/rebinds"));
  r.sim["codoms.revokes"] = reg_per_op(dp, dp.reg.Counter("codoms/revokes"));
  return r;
}

// Set-up is timed as RunOltp calls whose warm-up and measured windows are
// zero: they build the machine, processes and threads and stop there.
double OltpSetup(uint64_t seed) {
  const double h0 = HostNow();
  for (DbStorage storage : kStorages) {
    for (OltpMode mode : kModes) {
      (void)apps::RunOltp(Config(mode, storage, seed, /*setup_only=*/true));
    }
  }
  return HostNow() - h0;
}

}  // namespace dipcbench
