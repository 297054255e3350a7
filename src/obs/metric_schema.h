// The metric manifest src/obs/metric_schema.def as types: one constant per
// row, whose type carries the row's handle kind and the number of ids its
// pattern takes. Registry::Get (obs/metrics.h) accepts nothing else, so
// every registered metric is a manifest row by construction; the name is
// formatted from the pattern only when a snapshot is taken.
//
// This header is independent of DIPC_OBS_OFF: the manifest is a
// compile-time table either way.
#ifndef DIPC_OBS_METRIC_SCHEMA_H_
#define DIPC_OBS_METRIC_SCHEMA_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace dipc::obs {

class Counter;
class Gauge;
class Histogram;

// Ids a pattern takes: one per component ending in '*' ("*", "cpu*", "**").
constexpr int IdCount(std::string_view pattern) {
  int n = 0;
  for (size_t i = 0; i < pattern.size(); ++i) {
    if (pattern[i] == '*' && (i + 1 == pattern.size() || pattern[i + 1] == '/')) {
      ++n;
    }
  }
  return n;
}

// A DIPC_METRIC row: Registry::Get(row, ids...) takes `Ids` ids and
// returns an H*.
template <class H, int Ids>
struct Metric {
  uint16_t row;
};

// A DIPC_QUEUE_METRIC row: Registry::Get(row, scope) returns an H*.
template <class H>
struct QueueMetric {
  uint16_t row;
};

// A DIPC_QUEUE_SCOPE row whose pattern takes `Ids` ids.
template <int Ids>
struct QueueScopeRow {
  uint16_t scope;
};

// One queue's owner scope: a scope row and its ids, for example
// QueueScope(kFanOutRxDescQueue, fanout_id, r) for "fanout/<id>/rx/<r>/desc".
struct QueueScope {
  constexpr QueueScope(QueueScopeRow<1> s, uint32_t a) : scope(s.scope), ids{a, 0} {}
  constexpr QueueScope(QueueScopeRow<2> s, uint32_t a, uint32_t b) : scope(s.scope), ids{a, b} {}
  uint16_t scope;
  uint32_t ids[2];
};

// Row and scope indices, in manifest order.
enum class MetricRow : uint16_t {
#define DIPC_METRIC(ident, kind, pattern) ident,
#define DIPC_QUEUE_METRIC(ident, kind, leaf) ident,
#include "obs/metric_schema.def"
};
enum class QueueScopeIndex : uint16_t {
#define DIPC_QUEUE_SCOPE(ident, pattern) ident,
#include "obs/metric_schema.def"
};

// The typed constants: obs::kChanSends, obs::kQueueParkNs, ...
#define DIPC_METRIC(ident, kind, pattern) \
  inline constexpr Metric<kind, IdCount(pattern)> k##ident{static_cast<uint16_t>(MetricRow::ident)};
#define DIPC_QUEUE_METRIC(ident, kind, leaf) \
  inline constexpr QueueMetric<kind> k##ident{static_cast<uint16_t>(MetricRow::ident)};
#define DIPC_QUEUE_SCOPE(ident, pattern)                   \
  inline constexpr QueueScopeRow<IdCount(pattern)> k##ident{ \
      static_cast<uint16_t>(QueueScopeIndex::ident)};
#include "obs/metric_schema.def"

// What the registry keys an entry by: its row, its queue scope (kNoScope
// for a DIPC_METRIC row) and up to two ids.
inline constexpr uint16_t kNoScope = UINT16_MAX;
struct MetricKey {
  uint16_t row;
  uint16_t scope;
  uint32_t ids[2];
  bool operator==(const MetricKey&) const = default;
};

}  // namespace dipc::obs

#endif  // DIPC_OBS_METRIC_SCHEMA_H_
