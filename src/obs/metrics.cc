#include "obs/metrics.h"

#include <algorithm>
#include <iterator>
#include <sstream>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "base/check.h"
#include "base/thread_annotations.h"

namespace dipc::obs {

#ifndef DIPC_OBS_OFF

double Histogram::Percentile(double p) const {
  uint64_t total = count();
  if (total == 0) {
    return 0.0;
  }
  if (p < 0.0) {
    p = 0.0;
  }
  if (p > 100.0) {
    p = 100.0;
  }
  // Rank of the target sample, 1-based; walk buckets until the cumulative
  // count crosses it, then interpolate across the crossing bucket's range.
  double rank = p / 100.0 * static_cast<double>(total - 1) + 1.0;
  uint64_t cum = 0;
  for (int b = 0; b < kBuckets; ++b) {
    uint64_t n = bucket(b);
    if (n == 0) {
      continue;
    }
    if (static_cast<double>(cum + n) >= rank) {
      double lo = b == 0 ? 0.0 : static_cast<double>(1ull << (b - 1));
      double hi = b == 0 ? 1.0 : lo * 2.0;
      double frac = (rank - static_cast<double>(cum)) / static_cast<double>(n);
      double v = lo + (hi - lo) * frac;
      // Clamp to the observed range so tiny histograms don't report values
      // outside [min, max].
      v = std::max(v, static_cast<double>(min_ns()));
      v = std::min(v, static_cast<double>(max_ns()));
      return v;
    }
    cum += n;
  }
  return static_cast<double>(max_ns());
}

namespace {

// Patterns by row (a queue row holds its leaf) and by queue scope.
constexpr std::string_view kMetricPatterns[] = {
#define DIPC_METRIC(ident, kind, pattern) pattern,
#define DIPC_QUEUE_METRIC(ident, kind, leaf) leaf,
#include "obs/metric_schema.def"
};
constexpr std::string_view kQueueScopePatterns[] = {
#define DIPC_QUEUE_SCOPE(ident, pattern) pattern,
#include "obs/metric_schema.def"
};
constexpr std::string_view kProbePaths[] = {
#define DIPC_FAULT_PROBE(ident, name) name,
#include "fault/probes.def"
#undef DIPC_FAULT_PROBE
};

// Appends `pattern` with each '*' replaced by the next id in decimal and a
// "**" by the probe path the next id indexes.
void AppendPattern(std::string& out, std::string_view pattern, const uint32_t*& id) {
  for (size_t i = 0; i < pattern.size(); ++i) {
    if (pattern[i] != '*') {
      out += pattern[i];
    } else if (i + 1 < pattern.size() && pattern[i + 1] == '*') {
      DIPC_CHECK(*id < std::size(kProbePaths));
      out += kProbePaths[*id++];
      ++i;
    } else {
      out += std::to_string(*id++);
    }
  }
}

std::string MetricName(const MetricKey& key) {
  std::string name;
  const uint32_t* id = key.ids;
  if (key.scope != kNoScope) {
    AppendPattern(name, kQueueScopePatterns[key.scope], id);
    name += '/';
  }
  AppendPattern(name, kMetricPatterns[key.row], id);
  return name;
}

struct KeyHash {
  size_t operator()(const MetricKey& k) const noexcept {
    uint64_t h = (uint64_t{k.row} << 16 | k.scope) * 0x9e3779b97f4a7c15ull;
    h ^= (uint64_t{k.ids[0]} << 32 | k.ids[1]) + (h >> 29);
    return static_cast<size_t>(h * 0xbf58476d1ce4e5b9ull);
  }
};

// Node-based, so handle pointers survive rehashing.
template <class H>
using Table = std::unordered_map<MetricKey, H, KeyHash>;

// `"title": {"name": <emit(handle)>, ...}` over one table, sorted by name.
template <class H, class Emit>
void AppendSection(std::string& out, const char* title, const Table<H>& table, Emit emit) {
  std::vector<std::pair<std::string, const H*>> named;
  named.reserve(table.size());
  for (const auto& [key, handle] : table) {
    named.emplace_back(MetricName(key), &handle);
  }
  std::sort(named.begin(), named.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  out += '"';
  out += title;
  out += "\": {";
  for (size_t i = 0; i < named.size(); ++i) {
    out += i == 0 ? "\"" : ", \"";
    out += named[i].first;
    out += "\": ";
    emit(*named[i].second);
  }
  out += '}';
}

std::string FormatDouble(double v) {
  std::ostringstream os;
  os << v;
  std::string s = os.str();
  if (s == "inf" || s == "-inf" || s == "nan") {
    return "0";
  }
  return s;
}

}  // namespace

struct Registry::Impl {
  mutable base::Mutex mu;
  std::tuple<Table<Counter>, Table<Gauge>, Table<Histogram>> tables DIPC_GUARDED_BY(mu);
};

Registry::Impl& Registry::impl() const {
  static Impl* impl = new Impl();
  return *impl;
}

Registry& Registry::Default() {
  static Registry* r = new Registry();
  return *r;
}

template <class H>
H* Registry::Find(const MetricKey& key) {
  Impl& im = impl();
  base::MutexLock lock(&im.mu);
  return &std::get<Table<H>>(im.tables).try_emplace(key).first->second;
}

std::string Registry::SnapshotJson() const {
  Impl& im = impl();
  base::MutexLock lock(&im.mu);
  const auto& [counters, gauges, histograms] = im.tables;
  std::string out = "{";
  AppendSection(out, "counters", counters,
                [&](const Counter& c) { out += std::to_string(c.value()); });
  out += ", ";
  AppendSection(out, "gauges", gauges, [&](const Gauge& g) { out += std::to_string(g.value()); });
  out += ", ";
  AppendSection(out, "histograms", histograms, [&](const Histogram& h) {
    out += "{\"count\": " + std::to_string(h.count());
    out += ", \"sum_ns\": " + std::to_string(h.sum_ns());
    out += ", \"min_ns\": " + std::to_string(h.min_ns());
    out += ", \"max_ns\": " + std::to_string(h.max_ns());
    out += ", \"p50\": " + FormatDouble(h.Percentile(50));
    out += ", \"p95\": " + FormatDouble(h.Percentile(95));
    out += ", \"p99\": " + FormatDouble(h.Percentile(99));
    out += "}";
  });
  out += "}";
  return out;
}

void Registry::Reset() {
  Impl& im = impl();
  base::MutexLock lock(&im.mu);
  auto reset = [](auto& table) {
    for (auto& [key, handle] : table) {
      handle.Reset();
    }
  };
  auto& [counters, gauges, histograms] = im.tables;
  reset(counters);
  reset(gauges);
  reset(histograms);
}

size_t Registry::size() const {
  Impl& im = impl();
  base::MutexLock lock(&im.mu);
  const auto& [counters, gauges, histograms] = im.tables;
  return counters.size() + gauges.size() + histograms.size();
}

#else  // DIPC_OBS_OFF

Registry& Registry::Default() {
  static Registry* r = new Registry();
  return *r;
}

template <class H>
H* Registry::Find(const MetricKey&) {
  static H* dummy = new H();
  return dummy;
}

std::string Registry::SnapshotJson() const { return "{}"; }
void Registry::Reset() {}
size_t Registry::size() const { return 0; }

#endif  // DIPC_OBS_OFF

template Counter* Registry::Find(const MetricKey&);
template Gauge* Registry::Find(const MetricKey&);
template Histogram* Registry::Find(const MetricKey&);

}  // namespace dipc::obs
