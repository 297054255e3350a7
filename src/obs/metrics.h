// Runtime metrics registry: counters, gauges and log-bucketed latency
// histograms, one per row of the manifest src/obs/metric_schema.def and its
// ids. Snapshots name them hierarchically ("chan/3/sends",
// "domain/17/caps_minted", "fanout/2/rx/1/credit_stall_ns").
//
// The paper's whole argument rests on *attributed* measurement (Fig. 2's
// per-category cycle breakdowns); this registry extends that attribution to
// the runtime layers above os::TimeAccounting — channels, capability churn,
// credit stalls, futex traffic — so a multi-tenant run can answer "which
// tenant is stalling whom" instead of exposing one-off getters. The layer
// is generic: it knows no simulated-time vocabulary. Per-domain time
// ("domain/<tag>/time_ps/<kind>") is an ordinary counter that os::Kernel's
// one charge path writes.
//
// Hot-path contract:
//   - Registration (Registry::Get) takes a mutex and a hash lookup, and
//     builds no string: do it once, at object creation or on an object's
//     first use, and keep the returned handle pointer. Never look a handle
//     up per operation.
//   - The handles themselves are single relaxed atomic ops (Counter::Add is
//     one fetch_add), cheap enough to leave on the steady-state send path.
//     Handle pointers are stable for the life of the process (node-based
//     storage; the registry never removes entries).
//   - Recording charges no simulated time: a relaxed increment is modeled
//     as disappearing into the superscalar margin. Trace events are the
//     costed observability primitive (see obs/trace.h).
//   - Compiling with -DDIPC_OBS_OFF=1 stubs every handle to a no-op and the
//     registry to a shared dummy, so instrumented call sites compile away.
//
// The simulation itself is single-threaded (coroutines on one event queue),
// but the handles are thread-safe so host-level tooling/tests can hammer
// them from real threads (the TSan gate does).
#ifndef DIPC_OBS_METRICS_H_
#define DIPC_OBS_METRICS_H_

#include <atomic>
#include <bit>
#include <cstdint>
#include <string>

#include "obs/metric_schema.h"

namespace dipc::obs {

#ifndef DIPC_OBS_OFF

// Monotonic event count.
class Counter {
 public:
  void Add(uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void Reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

// Point-in-time level (queue depth, credits outstanding).
class Gauge {
 public:
  void Set(int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void Add(int64_t n) { v_.fetch_add(n, std::memory_order_relaxed); }
  void Sub(int64_t n) { v_.fetch_sub(n, std::memory_order_relaxed); }
  int64_t value() const { return v_.load(std::memory_order_relaxed); }
  void Reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

// Log2-bucketed latency histogram over nanosecond values: bucket b counts
// samples with bit_width(ns) == b, i.e. [2^(b-1), 2^b). 64 buckets cover
// the whole int64 nanosecond range; percentile queries interpolate inside
// the crossing bucket, which is the usual HdrHistogram-style trade of
// <= ~50% relative error per sample for O(1) lock-free recording.
class Histogram {
 public:
  static constexpr int kBuckets = 64;

  void Record(double ns) {
    uint64_t v = ns <= 0 ? 0 : static_cast<uint64_t>(ns);
    int b = v == 0 ? 0 : std::bit_width(v);
    if (b >= kBuckets) {
      b = kBuckets - 1;
    }
    buckets_[b].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_ns_.fetch_add(v, std::memory_order_relaxed);
    AtomicMin(min_ns_, v);
    AtomicMax(max_ns_, v);
  }

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum_ns() const { return sum_ns_.load(std::memory_order_relaxed); }
  uint64_t min_ns() const {
    uint64_t m = min_ns_.load(std::memory_order_relaxed);
    return m == UINT64_MAX ? 0 : m;
  }
  uint64_t max_ns() const { return max_ns_.load(std::memory_order_relaxed); }
  uint64_t bucket(int b) const { return buckets_[b].load(std::memory_order_relaxed); }

  // Approximate p-th percentile (p in [0, 100]) in ns: finds the bucket the
  // rank falls into and interpolates linearly across its value range.
  double Percentile(double p) const;

  void Reset() {
    for (auto& b : buckets_) {
      b.store(0, std::memory_order_relaxed);
    }
    count_.store(0, std::memory_order_relaxed);
    sum_ns_.store(0, std::memory_order_relaxed);
    min_ns_.store(UINT64_MAX, std::memory_order_relaxed);
    max_ns_.store(0, std::memory_order_relaxed);
  }

 private:
  static void AtomicMin(std::atomic<uint64_t>& slot, uint64_t v) {
    uint64_t cur = slot.load(std::memory_order_relaxed);
    while (v < cur && !slot.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  static void AtomicMax(std::atomic<uint64_t>& slot, uint64_t v) {
    uint64_t cur = slot.load(std::memory_order_relaxed);
    while (v > cur && !slot.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  std::atomic<uint64_t> buckets_[kBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_ns_{0};
  std::atomic<uint64_t> min_ns_{UINT64_MAX};
  std::atomic<uint64_t> max_ns_{0};
};

#else  // DIPC_OBS_OFF: every handle is a stateless no-op.

class Counter {
 public:
  void Add(uint64_t = 1) {}
  uint64_t value() const { return 0; }
  void Reset() {}
};

class Gauge {
 public:
  void Set(int64_t) {}
  void Add(int64_t) {}
  void Sub(int64_t) {}
  int64_t value() const { return 0; }
  void Reset() {}
};

class Histogram {
 public:
  static constexpr int kBuckets = 64;
  void Record(double) {}
  uint64_t count() const { return 0; }
  uint64_t sum_ns() const { return 0; }
  uint64_t min_ns() const { return 0; }
  uint64_t max_ns() const { return 0; }
  uint64_t bucket(int) const { return 0; }
  double Percentile(double) const { return 0; }
  void Reset() {}
};

#endif  // DIPC_OBS_OFF

// (row, ids) -> handle registry. Handles are created at zero on first Get
// and live for the process; the same row and ids always return the same
// pointer (a metric is one metric, whoever asks). The row's type fixes the
// handle kind and the number of ids, so there is no name to misspell and no
// kind to collide.
class Registry {
 public:
  // The process-wide default registry every subsystem registers into.
  static Registry& Default();

  // One id per '*' in the row's pattern (obs::kCodomsMints takes none,
  // obs::kChanSends one, obs::kFanOutRxCredits two).
  template <class H>
  H* Get(Metric<H, 0> m) {
    return Find<H>({m.row, kNoScope, {0, 0}});
  }
  template <class H>
  H* Get(Metric<H, 1> m, uint32_t a) {
    return Find<H>({m.row, kNoScope, {a, 0}});
  }
  template <class H>
  H* Get(Metric<H, 2> m, uint32_t a, uint32_t b) {
    return Find<H>({m.row, kNoScope, {a, b}});
  }
  // A queue metric under its owner's scope ("<scope>/<leaf>").
  template <class H>
  H* Get(QueueMetric<H> m, QueueScope s) {
    return Find<H>({m.row, s.scope, {s.ids[0], s.ids[1]}});
  }

  // One JSON object over every registered metric:
  //   {"counters": {name: value, ...},
  //    "gauges": {name: value, ...},
  //    "histograms": {name: {"count": c, "sum_ns": s, "min_ns": m,
  //                          "max_ns": M, "p50": .., "p95": .., "p99": ..}}}
  // The only place names are built; they are emitted sorted, so snapshots
  // diff cleanly.
  std::string SnapshotJson() const;

  // Zeroes every metric without invalidating handles (bench measurement
  // windows reset between series).
  void Reset();

  size_t size() const;

 private:
  template <class H>
  H* Find(const MetricKey& key);

  struct Impl;
  Impl& impl() const;
};

}  // namespace dipc::obs

#endif  // DIPC_OBS_METRICS_H_
