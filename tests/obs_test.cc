// Unit tests for the observability layer (src/obs/): the typed registry
// API (compile-time checks below), snapshot names for every pattern shape,
// handle identity, concurrent counter increments from real threads (the
// TSan gate hammers this), histogram percentiles, snapshot JSON
// well-formedness, trace-ring wraparound semantics, Chrome trace export,
// and the end-to-end wiring from a live channel into the registry.
//
// Every test also compiles (and most still assert something) under
// -DDIPC_OBS_OFF, guarded where the assertions require live metrics.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "base/check.h"
#include "chan/channel.h"
#include "codoms/codoms.h"
#include "dipc/dipc.h"
#include "fabric/fabric.h"
#include "fault/fault.h"
#include "hw/machine.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "os/accounting.h"
#include "os/kernel.h"
#include "os/semaphore.h"

namespace dipc::obs {
namespace {

// Minimal structural JSON validator: enough to catch unbalanced braces,
// unterminated strings and trailing commas in the snapshot/trace output
// without a JSON dependency.
bool JsonIsWellFormed(const std::string& s) {
  std::vector<char> stack;
  bool in_string = false;
  bool escaped = false;
  char prev_significant = '\0';
  for (char c : s) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
        prev_significant = '"';
      }
      continue;
    }
    switch (c) {
      case '"':
        in_string = true;
        break;
      case '{':
      case '[':
        stack.push_back(c);
        prev_significant = c;
        break;
      case '}':
        if (prev_significant == ',' || stack.empty() || stack.back() != '{') {
          return false;
        }
        stack.pop_back();
        prev_significant = c;
        break;
      case ']':
        if (prev_significant == ',' || stack.empty() || stack.back() != '[') {
          return false;
        }
        stack.pop_back();
        prev_significant = c;
        break;
      case ',':
      case ':':
        prev_significant = c;
        break;
      default:
        if (!std::isspace(static_cast<unsigned char>(c))) {
          prev_significant = c;
        }
        break;
    }
  }
  return !in_string && stack.empty();
}

TEST(ObsJsonValidator, CatchesMalformedJson) {
  EXPECT_TRUE(JsonIsWellFormed("{}"));
  EXPECT_TRUE(JsonIsWellFormed(R"({"a": [1, 2], "b": {"c": "x,]}"}})"));
  EXPECT_FALSE(JsonIsWellFormed("{"));
  EXPECT_FALSE(JsonIsWellFormed("{\"a\": 1,}"));
  EXPECT_FALSE(JsonIsWellFormed("{\"a\": [1, 2}"));
  EXPECT_FALSE(JsonIsWellFormed("{\"a"));
}

// The registry takes manifest rows only: no entry point accepts a name, a
// row returns its own kind's handle, and only with the ids its pattern has.
template <class Row, class... Ids>
concept Gets = requires(Registry& r, Row row, Ids... ids) { r.Get(row, ids...); };
static_assert(!Gets<std::string_view>);
static_assert(!Gets<const char*>);
static_assert(!Gets<std::string>);
static_assert(Gets<decltype(kChanSends), uint32_t>);
static_assert(!Gets<decltype(kChanSends)>);                 // missing id
static_assert(!Gets<decltype(kCodomsMints), uint32_t>);     // extra id
static_assert(!Gets<decltype(kFanInTxCredits), uint32_t>);  // one of two ids
static_assert(!Gets<decltype(kQueueParkNs), uint32_t>);     // queue rows take a scope
static_assert(!Gets<decltype(kChanSends), QueueScope>);     // and only queue rows do

template <class Row, class... Ids>
using GetResult =
    decltype(std::declval<Registry&>().Get(std::declval<Row>(), std::declval<Ids>()...));
static_assert(std::is_same_v<GetResult<decltype(kCodomsMints)>, Counter*>);
static_assert(std::is_same_v<GetResult<decltype(kChanSendBatch), uint32_t>, Histogram*>);
static_assert(std::is_same_v<GetResult<decltype(kFanOutRxCredits), uint32_t, uint32_t>, Gauge*>);
static_assert(std::is_same_v<GetResult<decltype(kQueueFutexWakes), QueueScope>, Counter*>);
static_assert(std::is_same_v<GetResult<decltype(kQueueParkNs), QueueScope>, Histogram*>);

// SnapshotJson() is where names are built: one case per pattern shape.
TEST(ObsSchema, SnapshotNamesEveryPatternShape) {
#ifdef DIPC_OBS_OFF
  GTEST_SKIP() << "observability compiled out (-DDIPC_OBS_OFF)";
#else
  Registry& reg = Registry::Default();
  const uint32_t id = NewObjectId();
  const std::string i = std::to_string(id);
  reg.Get(kCodomsMints);                                          // plain
  reg.Get(kChanSends, id);                                        // one '*'
  reg.Get(kFanInTxCredits, id, 4);                                // two '*'
  reg.Get(kQueueParkNs, QueueScope(kFanOutRxDescQueue, id, 3));   // nested, queue scope
  reg.Get(kQueueBlockedPops, QueueScope(kMpmcQueue, id));         // standalone queue
  reg.Get(kSchedRunqDepth, 7);                                    // "cpu*" prefix
  reg.Get(kFaultPoint, fault::PointIndex(fault::points::kChanSend));  // probe-path tail
  const std::string snap = reg.SnapshotJson();
  for (const std::string& name :
       {std::string("codoms/mints"), "chan/" + i + "/sends", "fanin/" + i + "/tx/4/credits",
        "fanout/" + i + "/rx/3/desc/park_ns", "mpmc/" + i + "/blocked_pops",
        std::string("os/sched/cpu7/runq_depth"), std::string("fault/point/chan/send")}) {
    EXPECT_NE(snap.find("\"" + name + "\": "), std::string::npos) << name;
  }
#endif
}

TEST(ObsRegistry, SameNameReturnsSameHandle) {
  Registry& reg = Registry::Default();
  const uint32_t id = NewObjectId();
  EXPECT_EQ(reg.Get(kProxyCalls, id), reg.Get(kProxyCalls, id));
  EXPECT_EQ(reg.Get(kProxyCallNs, id), reg.Get(kProxyCallNs, id));
  const QueueScope q(kFanOutRxDescQueue, id, 2);
  EXPECT_EQ(reg.Get(kQueueTimeouts, q), reg.Get(kQueueTimeouts, q));
#ifndef DIPC_OBS_OFF
  // A different row, id or scope is a different metric.
  EXPECT_NE(reg.Get(kProxyCalls, id), reg.Get(kProxyCrashes, id));
  EXPECT_NE(reg.Get(kProxyCalls, id), reg.Get(kProxyCalls, id + 1));
  EXPECT_NE(reg.Get(kQueueTimeouts, q),
            reg.Get(kQueueTimeouts, QueueScope(kFanOutRxDescQueue, id, 3)));
  EXPECT_NE(reg.Get(kQueueTimeouts, QueueScope(kChanDescQueue, id)),
            reg.Get(kQueueTimeouts, QueueScope(kChanFreeQueue, id)));
#endif
}

TEST(ObsRegistry, ConcurrentCounterIncrementsAreExact) {
  Registry& reg = Registry::Default();
  Counter* c = reg.Get(kProxyCalls, NewObjectId());
  constexpr int kThreads = 8;
  constexpr int kPerThread = 100000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([c] {
      for (int i = 0; i < kPerThread; ++i) {
        c->Add();
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
#ifndef DIPC_OBS_OFF
  EXPECT_EQ(c->value(), static_cast<uint64_t>(kThreads) * kPerThread);
#else
  EXPECT_EQ(c->value(), 0u);
#endif
}

TEST(ObsRegistry, ConcurrentHistogramRecordsKeepCountAndBounds) {
  Registry& reg = Registry::Default();
  Histogram* h = reg.Get(kProxyCallNs, NewObjectId());
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h->Record(1.0 + t * 100.0 + (i % 7));
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
#ifndef DIPC_OBS_OFF
  EXPECT_EQ(h->count(), static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(h->min_ns(), 1u);
  EXPECT_GE(h->max_ns(), 300u);
#endif
}

TEST(ObsHistogram, PercentilesLandInTheRightBucketRange) {
  Histogram h;
  for (int i = 0; i < 100; ++i) {
    h.Record(10.0);  // bucket [8, 16)
  }
  h.Record(1000.0);  // one outlier, bucket [512, 1024)
#ifndef DIPC_OBS_OFF
  EXPECT_EQ(h.count(), 101u);
  double p50 = h.Percentile(50);
  EXPECT_GE(p50, 8.0);
  EXPECT_LT(p50, 16.0);
  // The p100 must be clamped to the observed max, not the bucket top.
  EXPECT_DOUBLE_EQ(h.Percentile(100), 1000.0);
  EXPECT_EQ(h.min_ns(), 10u);
  EXPECT_EQ(h.max_ns(), 1000u);
#endif
}

TEST(ObsHistogram, ZeroAndNegativeSamplesLandInBucketZero) {
  Histogram h;
  h.Record(0.0);
  h.Record(-5.0);
#ifndef DIPC_OBS_OFF
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.bucket(0), 2u);
  EXPECT_EQ(h.min_ns(), 0u);
  EXPECT_EQ(h.max_ns(), 0u);
#endif
}

TEST(ObsRegistry, SnapshotJsonIsWellFormed) {
  Registry& reg = Registry::Default();
  const uint32_t id = NewObjectId();
  const std::string i = std::to_string(id);
  reg.Get(kFabricCalls, id)->Add(3);
  reg.Get(kFanOutRxCredits, id, 0)->Set(-7);
  reg.Get(kFabricCallNs, id)->Record(12345.0);
  std::string snap = reg.SnapshotJson();
  EXPECT_TRUE(JsonIsWellFormed(snap)) << snap.substr(0, 400);
#ifndef DIPC_OBS_OFF
  EXPECT_NE(snap.find("\"fabric/" + i + "/calls\": 3"), std::string::npos);
  EXPECT_NE(snap.find("\"fanout/" + i + "/rx/0/credits\": -7"), std::string::npos);
  EXPECT_NE(snap.find("\"fabric/" + i + "/call_ns\": {\"count\": 1"), std::string::npos);
#else
  EXPECT_EQ(snap, "{}");
#endif
}

TEST(ObsTrace, WraparoundKeepsTheNewestEvents) {
  TraceRing ring;
  ring.Enable(/*capacity_per_cpu=*/16);
  for (uint64_t i = 0; i < 100; ++i) {
    ring.Record(0, EventType::kSendBatch, 1, i, sim::Time::FromPicos(static_cast<int64_t>(i)));
  }
  ring.Disable();
#ifndef DIPC_OBS_OFF
  EXPECT_EQ(ring.recorded(0), 100u);
  EXPECT_EQ(ring.held(0), 16u);
  std::vector<TraceEvent> events = ring.Snapshot();
  ASSERT_EQ(events.size(), 16u);
  // The survivors must be exactly the newest 16, in timestamp order.
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].arg, 84 + i);
  }
#else
  EXPECT_EQ(ring.recorded(0), 0u);
  EXPECT_TRUE(ring.Snapshot().empty());
#endif
}

TEST(ObsTrace, EventCostIsZeroWhileDisabled) {
  TraceRing ring;
  EXPECT_EQ(ring.event_cost(), sim::Duration::Zero());
  ring.Enable(8);
#ifndef DIPC_OBS_OFF
  EXPECT_EQ(ring.event_cost(), TraceRing::kEventCost);
  EXPECT_GT(TraceRing::kEventCost, sim::Duration::Zero());
#else
  EXPECT_EQ(ring.event_cost(), sim::Duration::Zero());
#endif
  ring.Disable();
  EXPECT_EQ(ring.event_cost(), sim::Duration::Zero());
}

TEST(ObsTrace, ConcurrentPerCpuRecordingIsRaceFree) {
  // One real thread per simulated CPU, honoring the single-writer-per-CPU
  // contract; TSan turns any cross-thread aliasing bug into a failure.
  TraceRing ring;
  ring.Enable(1024);
  constexpr int kCpus = 4;
  constexpr uint64_t kEvents = 5000;
  std::vector<std::thread> threads;
  threads.reserve(kCpus);
  for (int cpu = 0; cpu < kCpus; ++cpu) {
    threads.emplace_back([&ring, cpu] {
      for (uint64_t i = 0; i < kEvents; ++i) {
        ring.Record(static_cast<uint32_t>(cpu), EventType::kRecvBatch, 7, i,
                    sim::Time::FromPicos(static_cast<int64_t>(i)));
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  ring.Disable();
#ifndef DIPC_OBS_OFF
  for (int cpu = 0; cpu < kCpus; ++cpu) {
    EXPECT_EQ(ring.recorded(static_cast<uint32_t>(cpu)), kEvents);
    EXPECT_EQ(ring.held(static_cast<uint32_t>(cpu)), 1024u);
  }
#endif
}

TEST(ObsTrace, ChromeTraceJsonIsWellFormedAndTyped) {
  TraceRing ring;
  ring.Enable(64);
  ring.Record(0, EventType::kProxyEnter, 3, 48, sim::Time::FromPicos(1000));
  ring.Record(1, EventType::kFutexPark, 4, 0, sim::Time::FromPicos(9000),
              sim::Duration::Picos(5000));
  ring.Disable();
  std::string json = ring.ChromeTraceJson();
  EXPECT_TRUE(JsonIsWellFormed(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
#ifndef DIPC_OBS_OFF
  // Instant event for the enter, span ("X" with dur) for the park.
  EXPECT_NE(json.find("\"proxy_enter\""), std::string::npos);
  EXPECT_NE(json.find("\"futex_park\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
#endif
}

TEST(ObsTrace, EveryEventTypeHasAName) {
  for (int i = 0; i < kEventTypeCount; ++i) {
    EXPECT_STRNE(EventTypeName(static_cast<EventType>(i)), "unknown");
  }
}

// End-to-end: a live channel's traffic must land in the registry under the
// channel's own obs id, so "which tenant is stalling whom" is answerable
// from the snapshot alone.
TEST(ObsWiring, ChannelTrafficLandsInRegistryUnderItsObsId) {
  hw::Machine machine(4);
  codoms::Codoms codoms(machine);
  os::Kernel kernel(machine, codoms);
  core::Dipc dipc(kernel);
  os::Process& prod = dipc.CreateDipcProcess("producer");
  os::Process& cons = dipc.CreateDipcProcess("consumer");
  auto ch = chan::Channel::Create(dipc, prod, cons, {.slots = 4, .buf_bytes = 4096});
  ASSERT_TRUE(ch.ok());
  chan::Channel& chan = *ch.value();
  constexpr int kMessages = 5;
  kernel.Spawn(prod, "producer", [&](os::Env env) -> sim::Task<void> {
    for (int i = 0; i < kMessages; ++i) {
      auto buf = co_await chan.AcquireBuf(env);
      EXPECT_TRUE(buf.ok());
      EXPECT_TRUE((co_await chan.Send(env, buf.value(), 64)).ok());
    }
  });
  kernel.Spawn(cons, "consumer", [&](os::Env env) -> sim::Task<void> {
    for (int i = 0; i < kMessages; ++i) {
      auto msg = co_await chan.Recv(env);
      EXPECT_TRUE(msg.ok());
      EXPECT_TRUE((co_await chan.Release(env, msg.value())).ok());
    }
  });
  kernel.Run();
  EXPECT_EQ(chan.sends(), static_cast<uint64_t>(kMessages));
  const uint32_t id = chan.obs_id();
  Registry& reg = Registry::Default();
#ifndef DIPC_OBS_OFF
  EXPECT_EQ(reg.Get(kChanSends, id)->value(), static_cast<uint64_t>(kMessages));
  EXPECT_EQ(reg.Get(kChanRecvs, id)->value(), static_cast<uint64_t>(kMessages));
  EXPECT_EQ(reg.Get(kChanAcquires, id)->value(), static_cast<uint64_t>(kMessages));
  EXPECT_EQ(reg.Get(kChanReleases, id)->value(), static_cast<uint64_t>(kMessages));
  EXPECT_EQ(reg.Get(kChanSendBatch, id)->count(), static_cast<uint64_t>(kMessages));
  // Capability churn mirrors the channel's own getters.
  EXPECT_EQ(reg.Get(kChanColdMints, id)->value(), chan.cold_mints());
#else
  // Compiled out: handles exist but stay silent, and the member-variable
  // getters above still worked — the public API does not depend on obs.
  EXPECT_EQ(reg.Get(kChanSends, id)->value(), 0u);
#endif
}

// Shared scaffolding for the fabric tracing tests: one tenant, one worker,
// per-test kernel so trace/accounting state is isolated.
struct FabricRig {
  hw::Machine machine{6};
  codoms::Codoms codoms{machine};
  os::Kernel kernel{machine, codoms};
  core::Dipc dipc{kernel};
  std::vector<os::Process*> clients;
  std::vector<os::Process*> workers;
  std::shared_ptr<fabric::ServiceFabric> fab;

  explicit FabricRig(fabric::FabricConfig cfg = {.req_slots = 8,
                                                 .req_bytes = 64,
                                                 .resp_slots = 8,
                                                 .resp_bytes = 64}) {
    clients.push_back(&dipc.CreateDipcProcess("tenant"));
    workers.push_back(&dipc.CreateDipcProcess("worker"));
    auto f = fabric::ServiceFabric::Create(dipc, clients, workers, cfg);
    DIPC_CHECK(f.ok());
    fab = f.value();
    fab->StartAllDispatchers();
  }

  void SpawnServe(fabric::ServiceFabric::Handler handler) {
    auto f = fab;
    kernel.Spawn(*workers[0], "serve", [f, handler](os::Env env) -> sim::Task<void> {
      co_await f->Serve(env, 0, 0, handler);
    });
  }
};

// The tentpole's core property: a single fabric Call under tracing yields a
// span for every hop — client acquire, request send, worker recv, handler,
// response send, completion dispatch, plus the whole-operation span — all
// tagged with the SAME opid carried through the descriptor trace word.
TEST(ObsFabric, SingleCallHopSpansShareOneOpid) {
  FabricRig rig;
  Trace().Enable(1 << 14);
  Trace().Clear();
  rig.SpawnServe([](os::Env, const chan::Msg&) -> sim::Task<void> { co_return; });
  bool ok = false;
  auto fab = rig.fab;
  rig.kernel.Spawn(*rig.clients[0], "web", [&ok, fab](os::Env env) -> sim::Task<void> {
    ok = (co_await fab->Call(env, 0, 16)).ok();
    fab->Close();
  });
  rig.kernel.Run();
  Trace().Disable();
  EXPECT_TRUE(ok);
#ifndef DIPC_OBS_OFF
  std::vector<TraceEvent> events = Trace().Snapshot();
  uint64_t opid = 0;
  for (const TraceEvent& e : events) {
    if (e.type == EventType::kFabricDispatch && e.opid != 0) {
      opid = e.opid;
    }
  }
  ASSERT_NE(opid, 0u) << "no fabric_dispatch span recorded";
  std::set<EventType> hops;
  for (const TraceEvent& e : events) {
    // Single operation: every opid-tagged event belongs to it.
    if (e.opid != 0) {
      EXPECT_EQ(e.opid, opid);
      hops.insert(e.type);
    }
  }
  for (EventType t : {EventType::kReqAcquire, EventType::kReqSend, EventType::kWorkerRecv,
                      EventType::kHandler, EventType::kRespSend,
                      EventType::kCompletionDispatch, EventType::kFabricDispatch}) {
    EXPECT_TRUE(hops.count(t)) << "missing hop span: " << EventTypeName(t);
  }
  EXPECT_EQ(Trace().total_dropped(), 0u);
#endif
  Trace().Clear();
}

// Retries run under the SAME opid but with a distinct attempt byte, so the
// assembled per-request trace shows them as sibling tracks.
TEST(ObsFabric, RetriesAppearAsDistinctAttempts) {
  FabricRig rig({.req_slots = 8,
                 .req_bytes = 64,
                 .resp_slots = 8,
                 .resp_bytes = 64,
                 .call_deadline = sim::Duration::Micros(100),
                 .max_call_retries = 20});
  Trace().Enable(1 << 14);
  Trace().Clear();
  // The first request wedges its worker past the call deadline; the client
  // must retry (same opid, next attempt) until the late response lands.
  auto slow_once = std::make_shared<bool>(true);
  rig.SpawnServe([slow_once](os::Env env, const chan::Msg&) -> sim::Task<void> {
    if (*slow_once) {
      *slow_once = false;
      co_await env.kernel->Sleep(env, sim::Duration::Millis(1));
    }
    co_return;
  });
  bool ok = false;
  auto fab = rig.fab;
  rig.kernel.Spawn(*rig.clients[0], "web", [&ok, fab](os::Env env) -> sim::Task<void> {
    ok = (co_await fab->Call(env, 0, 16)).ok();
    fab->Close();
  });
  rig.kernel.Run();
  Trace().Disable();
  EXPECT_TRUE(ok);
#ifndef DIPC_OBS_OFF
  std::vector<TraceEvent> events = Trace().Snapshot();
  uint64_t opid = 0;
  for (const TraceEvent& e : events) {
    if (e.type == EventType::kFabricDispatch && e.opid != 0) {
      opid = e.opid;
    }
  }
  ASSERT_NE(opid, 0u);
  std::set<uint64_t> attempts;
  for (const TraceEvent& e : events) {
    if (e.opid == opid && e.type == EventType::kReqSend) {
      attempts.insert(e.arg & 0xff);  // attempt byte of the hop-span arg
    }
  }
  EXPECT_GE(attempts.size(), 2u) << "expected at least one retry attempt";
  EXPECT_TRUE(attempts.count(0));
#endif
  Trace().Clear();
}

// Sums the "domain/<tag>/time_ps/<kind>" counters out of a SnapshotJson for
// the CPU-time kinds (futex_wait is blocked time, deliberately excluded).
uint64_t SumDomainCpuTimePs(const std::string& snap) {
  uint64_t sum = 0;
  size_t pos = 0;
  while ((pos = snap.find("\"domain/", pos)) != std::string::npos) {
    const size_t name_end = snap.find('"', pos + 1);
    if (name_end == std::string::npos) {
      break;
    }
    const std::string name = snap.substr(pos + 1, name_end - pos - 1);
    pos = name_end + 1;
    if (name.find("/time_ps/futex_wait") != std::string::npos ||
        name.find("/time_ps/") == std::string::npos) {
      continue;
    }
    const size_t colon = snap.find(':', name_end);
    if (colon == std::string::npos) {
      break;
    }
    sum += std::strtoull(snap.c_str() + colon + 1, nullptr, 10);
  }
  return sum;
}

// Per-domain time attribution closes the books exactly: every busy charge
// writes its Fig. 2 bucket and its domain counter from one call, both in
// picoseconds, so the user/kernel/copy/proxy domain counters sum to the
// kernel's busy (non-idle) accounting for the same window.
TEST(ObsDomainTime, DomainCpuTimeSumsMatchBusyAccounting) {
#ifdef DIPC_OBS_OFF
  GTEST_SKIP() << "observability compiled out (-DDIPC_OBS_OFF)";
#endif
  Registry::Default().Reset();
  FabricRig rig;
  rig.SpawnServe([](os::Env, const chan::Msg&) -> sim::Task<void> { co_return; });
  auto fab = rig.fab;
  rig.kernel.Spawn(*rig.clients[0], "web", [fab](os::Env env) -> sim::Task<void> {
    for (int i = 0; i < 8; ++i) {
      EXPECT_TRUE((co_await fab->Call(env, 0, 16)).ok());
    }
    fab->Close();
  });
  rig.kernel.Run();
  rig.kernel.FlushIdleAccounting();
  const os::TimeBreakdown total = rig.kernel.accounting().Summed();
  const int64_t busy_ps = (total.Total() - total[os::TimeCat::kIdle]).picos();
  ASSERT_GT(busy_ps, 0);
  const std::string snap = Registry::Default().SnapshotJson();
  EXPECT_EQ(SumDomainCpuTimePs(snap), static_cast<uint64_t>(busy_ps))
      << "per-domain attribution does not close against busy accounting";
  // Scheduler observability rides the same registry: the migration counter
  // and per-CPU run-queue gauges are registered at kernel construction.
  EXPECT_NE(snap.find("\"os/sched/migrations\""), std::string::npos);
  EXPECT_NE(snap.find("\"os/sched/cpu0/runq_depth\""), std::string::npos);
}

// Each charge lands in one Fig. 2 bucket (or none) and one domain kind:
// user time in user, copy_{from,to}_user in copy and the kernel bucket,
// scheduler and page-table switches in kernel, a futex park in futex_wait
// and in no bucket at all.
TEST(ObsDomainTime, ChargesRouteToOneBucketAndKind) {
#ifdef DIPC_OBS_OFF
  GTEST_SKIP() << "observability compiled out (-DDIPC_OBS_OFF)";
#endif
  Registry::Default().Reset();
  hw::Machine machine{2};
  codoms::Codoms codoms{machine};
  os::Kernel kernel{machine, codoms};
  os::Process& a = kernel.CreateProcess("a");
  os::Process& b = kernel.CreateProcess("b");
  Registry& reg = Registry::Default();
  Counter* a_user = reg.Get(kDomainTimeUser, a.default_domain());
  Counter* a_kernel = reg.Get(kDomainTimeKernel, a.default_domain());
  Counter* a_copy = reg.Get(kDomainTimeCopy, a.default_domain());
  Counter* a_wait = reg.Get(kDomainTimeFutexWait, a.default_domain());
  Counter* b_kernel = reg.Get(kDomainTimeKernel, b.default_domain());
  auto buf = kernel.MapAnonymous(a, hw::kPageSize, hw::PageFlags{.writable = true});
  ASSERT_TRUE(buf.ok());
  const hw::PhysAddr kbuf = kernel.AllocKernelBuffer(hw::kPageSize);
  os::Semaphore sem;
  kernel.Spawn(
      a, "a",
      [&](os::Env env) -> sim::Task<void> {
        os::Kernel& k = *env.kernel;
        co_await k.Spend(*env.self, sim::Duration::Picos(400), os::TimeCat::kUser);
        EXPECT_EQ(a_user->value(), 400u);

        const os::TimeBreakdown before = k.accounting().Summed();
        const uint64_t kernel0 = a_kernel->value();
        EXPECT_TRUE((co_await k.CopyFromUser(env, kbuf, buf.value(), 256)).ok());
        const os::TimeBreakdown copied = k.accounting().Summed() - before;
        EXPECT_GT(copied[os::TimeCat::kKernel].picos(), 0);
        EXPECT_EQ(copied.Total(), copied[os::TimeCat::kKernel]);
        EXPECT_EQ(a_copy->value(), static_cast<uint64_t>(copied.Total().picos()));
        EXPECT_EQ(a_kernel->value(), kernel0);

        co_await sem.Wait(env);  // parks until `b` posts
      },
      /*pin_cpu=*/0);
  kernel.Spawn(
      b, "b",
      [&](os::Env env) -> sim::Task<void> {
        // Nothing of b's ran yet: its kernel time is the dispatch that
        // switched CPU 0 from `a`'s page table to its own.
        const hw::CostModel& cm = env.kernel->costs();
        const sim::Duration sched =
            cm.schedule_pick + cm.register_save + cm.register_restore + cm.current_switch;
        EXPECT_EQ(b_kernel->value(), static_cast<uint64_t>((sched + cm.page_table_switch).picos()));
        EXPECT_EQ(env.kernel->accounting().Summed()[os::TimeCat::kPageTableSwitch],
                  cm.page_table_switch);
        co_await env.kernel->Spend(*env.self, sim::Duration::Micros(5), os::TimeCat::kUser);
        co_await sem.Post(env);
      },
      /*pin_cpu=*/0);
  kernel.Run();
  kernel.FlushIdleAccounting();
  // The park is blocked time: futex_wait grew, yet the CPU-time kinds of
  // both domains still sum exactly to the busy buckets.
  EXPECT_GT(a_wait->value(), 0u);
  const os::TimeBreakdown total = kernel.accounting().Summed();
  EXPECT_EQ(SumDomainCpuTimePs(Registry::Default().SnapshotJson()),
            static_cast<uint64_t>((total.Total() - total[os::TimeCat::kIdle]).picos()));
}

}  // namespace
}  // namespace dipc::obs
