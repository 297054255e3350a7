// Shared pieces of the benchmark runner: the per-round result, the layer
// probe that brackets a measurement window, the registry snapshot reader and
// the span recorder used by the traced run.
//
// Two clocks run side by side. Sim values come from the simulated machine and
// repeat exactly for one seed; host values are wall time on the machine that
// runs the benchmark.
#ifndef DIPCBENCH_HARNESS_H_
#define DIPCBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "codoms/codoms.h"
#include "dipc/dipc.h"
#include "hw/cache_model.h"
#include "hw/machine.h"
#include "os/accounting.h"
#include "os/kernel.h"

namespace dipcbench {

namespace codoms = dipc::codoms;
namespace hw = dipc::hw;
namespace os = dipc::os;
namespace sim = dipc::sim;

inline double HostNow() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// What one round of a workload produced.
struct Round {
  double setup_host_s = 0;  // building the world, before the first event
  double host_s = 0;        // running the fixed input, the benchmark's own work excluded
  uint64_t events = 0;      // simulator events fired while host_s ran
  double ops = 0;           // operations in the measured window
  double event_host_s = 0;  // the part of host_s spent in hand-built event loops
  double check_host_s = 0;  // the benchmark's own data generation and checks
  // Deterministic values: e2e sim metrics and per-layer counters. Two rounds
  // with one seed must produce byte-identical maps.
  std::map<std::string, double> sim;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  // one line per failed check
  std::vector<std::string> report;  // human-readable detail (anchor tables)
  void Check(bool ok, const std::string& what) {
    if (!ok) {
      Fail(what);
    }
  }
  void Fail(const std::string& what) {
    ++failed;
    if (errors.size() < 20) {
      errors.push_back(what);
    }
  }
};

// Counters and histogram sums read back from obs::Registry::SnapshotJson().
struct RegistryView {
  std::map<std::string, double> counters;
  std::map<std::string, double> hist_sum_ns;
  size_t entries = 0;
  size_t snapshot_bytes = 0;

  static RegistryView Take();
  // Sum of the counters whose name ends with `suffix`.
  double SumSuffix(const std::string& suffix) const;
  double Counter(const std::string& name) const;
  // Parks on any queue, ring or semaphore futex, and wakes of them.
  double FutexWaits() const;
  double FutexWakes() const { return SumSuffix("/futex_wakes"); }
  double ProxyCalls() const;  // proxy/*/calls
};

// Brackets one measurement window of a hand-built world. Begin() zeroes the
// registry and the kernel's time accounting (statistics start after warm-up)
// and snapshots the counters that cannot be reset; End() takes the deltas.
// Host time spent inside the probe is tracked so the caller can exclude it.
class Probe {
 public:
  Probe(hw::Machine& machine, codoms::Codoms& codoms, os::Kernel& kernel)
      : machine_(machine), codoms_(codoms), kernel_(kernel) {}

  void Begin();
  void End();
  bool ended() const { return ended_; }
  double host_s() const { return host_s_; }
  double window_ns() const { return (t1_ - t0_).nanos(); }

  // Per-layer metrics common to every hand-built world, per operation.
  void AddLayerMetrics(double ops, Round& r) const;
  const RegistryView& registry() const { return reg_; }

 private:
  struct Counts {
    uint64_t events = 0;
    dipc::hw::CacheStats cache;
    uint64_t tlb_walks = 0;
    uint64_t apl_hits = 0;
    uint64_t apl_misses = 0;
    uint64_t context_switches = 0;
  };
  Counts Read() const;

  hw::Machine& machine_;
  codoms::Codoms& codoms_;
  os::Kernel& kernel_;
  Counts c0_, delta_;
  dipc::sim::Time t0_, t1_;
  dipc::os::TimeBreakdown breakdown_;
  RegistryView reg_;
  bool ended_ = false;
  double host_s_ = 0;
};

// Times the benchmark's own work inside an event loop (writing seeded
// payloads, verifying what arrived) so host_s leaves it out. Wrap code that
// does not suspend.
class CheckTimer {
 public:
  explicit CheckTimer(Round& r) : r_(r), t0_(HostNow()) {}
  ~CheckTimer() { r_.check_host_s += HostNow() - t0_; }
  CheckTimer(const CheckTimer&) = delete;
  CheckTimer& operator=(const CheckTimer&) = delete;

 private:
  Round& r_;
  double t0_;
};

// One hand-built simulated machine with its dIPC runtime and probe.
struct World {
  explicit World(uint32_t cpus)
      : machine(cpus), codoms(machine), kernel(machine, codoms), dipc(kernel),
        probe(machine, codoms, kernel) {}
  hw::Machine machine;
  codoms::Codoms codoms;
  os::Kernel kernel;
  dipc::core::Dipc dipc;
  Probe probe;

  // Runs the event loop to idle: adds its host seconds (probe reads and
  // CheckTimer scopes excluded) and the events it fired to the round.
  void Run(Round& r) {
    const double h0 = HostNow();
    const uint64_t e0 = machine.events().total_fired();
    const double p0 = probe.host_s();
    const double c0 = r.check_host_s;
    kernel.Run();
    const double host = HostNow() - h0 - (probe.host_s() - p0) - (r.check_host_s - c0);
    r.host_s += host;
    r.event_host_s += host;
    r.events += machine.events().total_fired() - e0;
  }
};

// Benchmark-side span recorder for the traced run. A span brackets one
// public call; it holds its layer name, both clocks at start and end, its
// parent span and the id of the operation it belongs to. Spans stay in memory
// and are written out when the run ends. A null recorder records nothing.
class Spans {
 public:
  struct Span {
    const char* layer;
    uint64_t op;
    uint32_t parent;  // 0 = none
    int64_t sim_begin_ps, sim_end_ps;
    double host_begin_s, host_end_s;
  };

  uint32_t Begin(const char* layer, uint64_t op, uint32_t parent, dipc::sim::Time now) {
    spans_.push_back(Span{layer, op, parent, now.picos(), now.picos(), HostNow(), 0});
    return static_cast<uint32_t>(spans_.size());  // ids start at 1
  }
  void End(uint32_t id, dipc::sim::Time now) {
    Span& s = spans_[id - 1];
    s.sim_end_ps = now.picos();
    s.host_end_s = HostNow();
  }
  const std::vector<Span>& spans() const { return spans_; }

  // Self time per layer, both clocks: each span's duration minus the part
  // of it its child spans cover.
  struct SelfTime {
    double sim_ns = 0;
    double host_ns = 0;
    uint64_t count = 0;
  };
  std::map<std::string, SelfTime> SelfTimes() const;
  bool WriteJsonl(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

// RAII span around one call: opens at construction, closes at scope exit,
// reading `k`'s simulated clock at both ends. Without a kernel (world
// set-up, work in a machine the benchmark cannot see, such as RunOltp's) the
// span has no simulated extent.
class ScopedSpan {
 public:
  ScopedSpan(Spans* rec, const char* layer, uint64_t op, uint32_t parent,
             const os::Kernel* k = nullptr)
      : rec_(rec), k_(k), id_(rec != nullptr ? rec->Begin(layer, op, parent, Now()) : 0) {}
  ~ScopedSpan() {
    if (rec_ != nullptr) {
      rec_->End(id_, Now());
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  uint32_t id() const { return id_; }

 private:
  sim::Time Now() const { return k_ != nullptr ? k_->now() : sim::Time::Zero(); }
  Spans* rec_;
  const os::Kernel* k_;
  uint32_t id_;
};

// p50 and the highest percentile with at least ten samples beyond it, which
// is p99 once there are 1000 samples.
struct Latency {
  double p50 = 0;
  double p99 = 0;
  size_t samples = 0;
};
Latency Percentiles(const std::vector<double>& ns);

// Adds the three e2e simulated metrics and the sample count.
void AddLatencyMetrics(double ops, double window_ns, const std::vector<double>& lat_ns, Round& r);

// `n` seeded draws from U[0, 1), stratified: one draw in each of the n
// equal strata, in seeded order. Every seed gets the same distribution with
// no sampling noise, so simulated metrics move with the code and the seed's
// ordering, not with how many large inputs a seed happened to draw.
std::vector<double> StratifiedUnit(uint64_t seed, size_t n);

// Seeded payload word for message/argument `seq` at word `i`.
uint64_t PatternWord(uint64_t seed, uint64_t seq, uint64_t i);
// `len` payload bytes for `seq`: word 0 holds `seq` itself, the rest
// PatternWord, so a receiver can tell which message it holds.
std::vector<std::byte> PatternBytes(uint64_t seed, uint64_t seq, uint64_t len);
// Order-sensitive 64-bit checksum of a byte string.
uint64_t Fold(std::span<const std::byte> bytes);

}  // namespace dipcbench

#endif  // DIPCBENCH_HARNESS_H_
