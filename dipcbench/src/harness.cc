#include "harness.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "base/check.h"
#include "fault/fault.h"
#include "obs/metrics.h"
#include "sim/random.h"
#include "sim/stats.h"

namespace dipcbench {

namespace {

// Just enough JSON to read obs::Registry::SnapshotJson(): nested objects
// whose leaves are numbers.
class SnapshotParser {
 public:
  explicit SnapshotParser(const std::string& s) : s_(s) {}

  template <typename F>
  void Object(F&& member) {
    Expect('{');
    if (Peek() == '}') {
      ++i_;
      return;
    }
    while (true) {
      std::string key = String();
      Expect(':');
      member(key);
      if (Peek() == ',') {
        ++i_;
        continue;
      }
      Expect('}');
      return;
    }
  }

  double Number() {
    Peek();
    const char* begin = s_.c_str() + i_;
    char* end = nullptr;
    double v = std::strtod(begin, &end);
    DIPC_CHECK(end != begin);
    i_ += static_cast<size_t>(end - begin);
    return v;
  }

 private:
  char Peek() {
    while (i_ < s_.size() && (s_[i_] == ' ' || s_[i_] == '\n')) {
      ++i_;
    }
    DIPC_CHECK(i_ < s_.size());
    return s_[i_];
  }
  void Expect(char c) {
    DIPC_CHECK(Peek() == c);
    ++i_;
  }
  std::string String() {
    Expect('"');
    std::string out;
    while (s_[i_] != '"') {
      if (s_[i_] == '\\') {
        ++i_;
      }
      out += s_[i_++];
    }
    ++i_;
    return out;
  }

  const std::string& s_;
  size_t i_ = 0;
};

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

RegistryView RegistryView::Take() {
  RegistryView v;
  const std::string snap = dipc::obs::Registry::Default().SnapshotJson();
  v.snapshot_bytes = snap.size();
  v.entries = dipc::obs::Registry::Default().size();
  SnapshotParser p(snap);
  p.Object([&](const std::string& section) {
    p.Object([&](const std::string& name) {
      if (section == "histograms") {
        p.Object([&](const std::string& field) {
          double x = p.Number();
          if (field == "sum_ns") {
            v.hist_sum_ns[name] = x;
          }
        });
      } else {
        double x = p.Number();
        if (section == "counters") {
          v.counters[name] = x;
        }
      }
    });
  });
  return v;
}

double RegistryView::SumSuffix(const std::string& suffix) const {
  double sum = 0;
  for (const auto& [name, x] : counters) {
    if (EndsWith(name, suffix)) {
      sum += x;
    }
  }
  return sum;
}

double RegistryView::FutexWaits() const {
  return SumSuffix("/blocked_pops") + SumSuffix("/blocked_pushes") + SumSuffix("/blocked_reads") +
         SumSuffix("/blocked_writes") + Counter("os/sem/futex_waits");
}

double RegistryView::ProxyCalls() const {
  double sum = 0;
  for (const auto& [name, x] : counters) {
    if (name.rfind("proxy/", 0) == 0 && EndsWith(name, "/calls")) {
      sum += x;
    }
  }
  return sum;
}

double RegistryView::Counter(const std::string& name) const {
  auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

Probe::Counts Probe::Read() const {
  Counts c;
  c.events = machine_.events().total_fired();
  c.cache = machine_.caches().stats();
  for (uint32_t cpu = 0; cpu < machine_.num_cpus(); ++cpu) {
    c.tlb_walks += machine_.cpu(cpu).tlb().walks();
    c.apl_hits += codoms_.apl_cache(cpu).hits();
    c.apl_misses += codoms_.apl_cache(cpu).misses();
  }
  c.context_switches = kernel_.context_switches();
  return c;
}

void Probe::Begin() {
  const double h0 = HostNow();
  kernel_.FlushIdleAccounting();
  kernel_.accounting().Reset();
  dipc::obs::Registry::Default().Reset();
  c0_ = Read();
  t0_ = kernel_.now();
  host_s_ += HostNow() - h0;
}

void Probe::End() {
  const double h0 = HostNow();
  DIPC_CHECK(!ended_);
  ended_ = true;
  kernel_.FlushIdleAccounting();
  breakdown_ = kernel_.accounting().Summed();
  t1_ = kernel_.now();
  Counts c1 = Read();
  delta_.events = c1.events - c0_.events;
  delta_.cache.l1_hits = c1.cache.l1_hits - c0_.cache.l1_hits;
  delta_.cache.l2_hits = c1.cache.l2_hits - c0_.cache.l2_hits;
  delta_.cache.l3_hits = c1.cache.l3_hits - c0_.cache.l3_hits;
  delta_.cache.mem_accesses = c1.cache.mem_accesses - c0_.cache.mem_accesses;
  delta_.cache.remote_transfers = c1.cache.remote_transfers - c0_.cache.remote_transfers;
  delta_.tlb_walks = c1.tlb_walks - c0_.tlb_walks;
  delta_.apl_hits = c1.apl_hits - c0_.apl_hits;
  delta_.apl_misses = c1.apl_misses - c0_.apl_misses;
  delta_.context_switches = c1.context_switches - c0_.context_switches;
  reg_ = RegistryView::Take();
  host_s_ += HostNow() - h0;
}

void Probe::AddLayerMetrics(double ops, Round& r) const {
  DIPC_CHECK(ended_ && ops > 0);
  using dipc::os::TimeCat;
  auto& m = r.sim;
  auto per_op = [ops](double x) { return x / ops; };
  m["sim.events_per_op"] = per_op(static_cast<double>(delta_.events));
  m["hw.l1_hits"] = per_op(static_cast<double>(delta_.cache.l1_hits));
  m["hw.l2_hits"] = per_op(static_cast<double>(delta_.cache.l2_hits));
  m["hw.l3_hits"] = per_op(static_cast<double>(delta_.cache.l3_hits));
  m["hw.mem_accesses"] = per_op(static_cast<double>(delta_.cache.mem_accesses));
  m["hw.remote_transfers"] = per_op(static_cast<double>(delta_.cache.remote_transfers));
  m["hw.tlb_walks"] = per_op(static_cast<double>(delta_.tlb_walks));
  const double apl = static_cast<double>(delta_.apl_hits + delta_.apl_misses);
  m["codoms.apl_miss_ratio"] = apl > 0 ? static_cast<double>(delta_.apl_misses) / apl : 0;
  auto ns = [&](TimeCat c) { return per_op(breakdown_[c].nanos()); };
  m["os.user_ns"] = ns(TimeCat::kUser);
  m["os.syscall_ns"] = ns(TimeCat::kSyscallCrossing) + ns(TimeCat::kSyscallDispatch);
  m["os.kernel_ns"] = ns(TimeCat::kKernel);
  m["os.sched_ns"] = ns(TimeCat::kSchedule);
  m["os.pt_switch_ns"] = ns(TimeCat::kPageTableSwitch);
  m["os.idle_ns"] = ns(TimeCat::kIdle);
  m["os.context_switches"] = per_op(static_cast<double>(delta_.context_switches));
  m["dipc.proxy_ns"] = ns(TimeCat::kProxy);
  m["codoms.mints"] = per_op(reg_.Counter("codoms/mints"));
  m["codoms.rebinds"] = per_op(reg_.Counter("codoms/rebinds"));
  m["codoms.revokes"] = per_op(reg_.Counter("codoms/revokes"));
  m["os.futex_waits"] = per_op(reg_.FutexWaits());
  m["os.futex_wakes"] = per_op(reg_.FutexWakes());
  m["os.sched.migrations"] = per_op(reg_.Counter("os/sched/migrations"));
  m["dipc.proxy_calls"] = per_op(reg_.ProxyCalls());
  // Each proxy call crosses twice, call and return: the paper's §7.5 count.
  m["dipc.cross_domain_calls"] = per_op(2 * reg_.ProxyCalls());
  r.sim["obs.registry_entries"] = static_cast<double>(reg_.entries);
  r.sim["obs.snapshot_bytes"] = static_cast<double>(reg_.snapshot_bytes);
  r.Check(reg_.Counter("fault/injected") == 0 && dipc::fault::Injector::Global().fire_count() == 0,
          "fault/injected != 0");
}

std::map<std::string, Spans::SelfTime> Spans::SelfTimes() const {
  // Children's intervals per parent, in both clocks.
  std::vector<std::vector<uint32_t>> children(spans_.size() + 1);
  for (uint32_t id = 1; id <= spans_.size(); ++id) {
    children[spans_[id - 1].parent].push_back(id);
  }
  auto covered = [](std::vector<std::pair<double, double>> iv, double lo, double hi) {
    std::sort(iv.begin(), iv.end());
    double total = 0, cur_lo = 0, cur_hi = -1;
    bool open = false;
    for (auto [a, b] : iv) {
      a = std::max(a, lo);
      b = std::min(b, hi);
      if (b <= a) {
        continue;
      }
      if (open && a <= cur_hi) {
        cur_hi = std::max(cur_hi, b);
      } else {
        if (open) {
          total += cur_hi - cur_lo;
        }
        cur_lo = a;
        cur_hi = b;
        open = true;
      }
    }
    if (open) {
      total += cur_hi - cur_lo;
    }
    return total;
  };
  std::map<std::string, SelfTime> out;
  for (uint32_t id = 1; id <= spans_.size(); ++id) {
    const Span& s = spans_[id - 1];
    std::vector<std::pair<double, double>> sim_iv, host_iv;
    for (uint32_t c : children[id]) {
      const Span& k = spans_[c - 1];
      sim_iv.emplace_back(static_cast<double>(k.sim_begin_ps), static_cast<double>(k.sim_end_ps));
      host_iv.emplace_back(k.host_begin_s, k.host_end_s);
    }
    const double sim_lo = static_cast<double>(s.sim_begin_ps);
    const double sim_hi = static_cast<double>(s.sim_end_ps);
    SelfTime& t = out[s.layer];
    t.sim_ns += (sim_hi - sim_lo - covered(sim_iv, sim_lo, sim_hi)) / 1e3;
    t.host_ns +=
        (s.host_end_s - s.host_begin_s - covered(host_iv, s.host_begin_s, s.host_end_s)) * 1e9;
    ++t.count;
  }
  return out;
}

bool Spans::WriteJsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const double h0 = spans_.empty() ? 0 : spans_[0].host_begin_s;
  for (uint32_t id = 1; id <= spans_.size(); ++id) {
    const Span& s = spans_[id - 1];
    std::fprintf(f,
                 "{\"id\": %u, \"parent\": %u, \"layer\": \"%s\", \"op\": %llu, "
                 "\"sim_begin_ns\": %.3f, \"sim_end_ns\": %.3f, "
                 "\"host_begin_ns\": %.0f, \"host_end_ns\": %.0f}\n",
                 id, s.parent, s.layer, static_cast<unsigned long long>(s.op),
                 static_cast<double>(s.sim_begin_ps) / 1e3, static_cast<double>(s.sim_end_ps) / 1e3,
                 (s.host_begin_s - h0) * 1e9, (s.host_end_s - h0) * 1e9);
  }
  return std::fclose(f) == 0;
}

Latency Percentiles(const std::vector<double>& ns) {
  dipc::sim::Samples s;
  for (double x : ns) {
    s.Add(x);
  }
  Latency l;
  l.samples = ns.size();
  if (ns.empty()) {
    return l;
  }
  // Highest percentile that still leaves ten samples above it, capped at 99.
  const double n = static_cast<double>(ns.size());
  const double top = std::min(99.0, 100.0 * (1.0 - 10.0 / n));
  l.p50 = s.Percentile(50);
  l.p99 = s.Percentile(std::max(50.0, top));
  return l;
}

void AddLatencyMetrics(double ops, double window_ns, const std::vector<double>& lat_ns, Round& r) {
  Latency l = Percentiles(lat_ns);
  r.Check(l.samples >= 1000, "fewer than 1000 latency samples");
  r.Check(window_ns > 0 && ops > 0, "empty measurement window");
  r.sim["sim_ops_per_s"] = window_ns > 0 ? ops / (window_ns * 1e-9) : 0;
  r.sim["sim_lat_p50_ns"] = l.p50;
  r.sim["sim_lat_p99_ns"] = l.p99;
  r.sim["sim.lat_samples"] = static_cast<double>(l.samples);
}

std::vector<double> StratifiedUnit(uint64_t seed, size_t n) {
  dipc::sim::Rng rng(seed);
  std::vector<double> u(n);
  for (size_t i = 0; i < n; ++i) {
    u[i] = (static_cast<double>(i) + rng.NextDouble()) / static_cast<double>(n);
  }
  for (size_t i = n; i > 1; --i) {  // Fisher-Yates
    std::swap(u[i - 1], u[rng.UniformInt(0, i - 1)]);
  }
  return u;
}

uint64_t PatternWord(uint64_t seed, uint64_t seq, uint64_t i) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL ^ (seq << 20) ^ i;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::vector<std::byte> PatternBytes(uint64_t seed, uint64_t seq, uint64_t len) {
  std::vector<std::byte> out(len);
  for (uint64_t i = 0; i * 8 < len; ++i) {
    const uint64_t w = i == 0 ? seq : PatternWord(seed, seq, i);
    std::memcpy(out.data() + i * 8, &w, std::min<uint64_t>(8, len - i * 8));
  }
  return out;
}

uint64_t Fold(std::span<const std::byte> bytes) {
  uint64_t h = 0xCBF29CE484222325ULL;
  for (size_t i = 0; i < bytes.size(); i += 8) {
    uint64_t w = 0;
    std::memcpy(&w, bytes.data() + i, std::min<size_t>(8, bytes.size() - i));
    h = (h ^ w) * 0x100000001B3ULL;
  }
  return h;
}

}  // namespace dipcbench
