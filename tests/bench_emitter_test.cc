// Regression tests for JsonEmitter's --metrics series windows
// (bench/micro_harness.h): BeginSeries must snapshot the metric registry
// under the open label and zero it, so each series' counters cover exactly
// its own measurement — the bug being pinned down is a bench that never
// calls BeginSeries (or only some sweeps do) silently attributing the whole
// binary's accumulated counters to every series.
#include <gtest/gtest.h>

#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "micro_harness.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dipc::bench {
namespace {

// Builds a null-terminated argv in the shape main() receives.
struct Argv {
  explicit Argv(std::vector<std::string> args) : storage(std::move(args)) {
    for (auto& a : storage) {
      ptrs.push_back(a.data());
    }
    ptrs.push_back(nullptr);
    argc = static_cast<int>(storage.size());
  }
  std::vector<std::string> storage;
  std::vector<char*> ptrs;
  int argc;
};

// A fresh fabric's "fabric/<id>/calls" counter and its snapshot key.
struct Calls {
  uint32_t id = obs::NewObjectId();
  obs::Counter* counter = obs::Registry::Default().Get(obs::kFabricCalls, id);
  std::string key = "\"fabric/" + std::to_string(id) + "/calls\": ";
};

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(BenchEmitter, BeginSeriesIsolatesMetricsPerSeries) {
#ifdef DIPC_OBS_OFF
  GTEST_SKIP() << "observability compiled out (-DDIPC_OBS_OFF)";
#endif
  obs::Registry::Default().Reset();
  const std::string path = "BENCH_emitter_iso_test.json";
  std::remove(path.c_str());
  const Calls x;
  {
    Argv av({"bench", "--json", "--metrics"});
    JsonEmitter json("emitter_iso_test", av.argc, av.ptrs.data());
    ASSERT_TRUE(json.enabled());
    ASSERT_TRUE(json.metrics());
    json.BeginSeries("window_a");
    x.counter->Add(3);
    json.Row("a", 1, 10.0);
    json.BeginSeries("window_b");
    x.counter->Add(5);
    json.Row("b", 1, 20.0);
  }  // destructor closes window_b and writes the file
  const std::string body = ReadFile(path);
  ASSERT_FALSE(body.empty());
  // Each window sees only its own increments: 3 then 5, never the
  // accumulated 8 a missing reset would produce.
  const size_t a = body.find("\"window_a\"");
  const size_t b = body.find("\"window_b\"");
  ASSERT_NE(a, std::string::npos);
  ASSERT_NE(b, std::string::npos);
  ASSERT_LT(a, b);
  const std::string win_a = body.substr(a, b - a);
  const std::string win_b = body.substr(b);
  EXPECT_NE(win_a.find(x.key + "3"), std::string::npos) << win_a;
  EXPECT_NE(win_b.find(x.key + "5"), std::string::npos) << win_b;
  EXPECT_EQ(body.find(x.key + "8"), std::string::npos);
  std::remove(path.c_str());
}

// Extracts the integer value of `counter` from one series window of the
// emitted JSON, or -1 when the counter is absent.
long long CounterIn(const std::string& window, const std::string& counter) {
  const std::string needle = "\"" + counter + "\": ";
  const size_t pos = window.find(needle);
  if (pos == std::string::npos) {
    return -1;
  }
  return std::atoll(window.c_str() + pos + needle.size());
}

// Regression for the audited benches (fig1/2/5/7, table1, s531, s75): run a
// real fig2-style measurement under two series windows and check the second
// window reports only its own simulator counters. Before the audit those
// benches never called BeginSeries, so every series silently carried the
// binary's entire accumulated counter state.
TEST(BenchEmitter, Fig2StyleSeriesWindowsIsolateSimulatorCounters) {
#ifdef DIPC_OBS_OFF
  GTEST_SKIP() << "observability compiled out (-DDIPC_OBS_OFF)";
#endif
  obs::Registry::Default().Reset();
  const std::string path = "BENCH_emitter_fig2_test.json";
  std::remove(path.c_str());
  {
    Argv av({"bench", "--json", "--metrics"});
    JsonEmitter json("emitter_fig2_test", av.argc, av.ptrs.data());
    MicroConfig cfg{.arg_bytes = 1, .rounds = 40, .cross_cpu = false};
    json.BeginSeries("sem_first");
    json.Row("sem_first", 0, MeasureSemaphore(cfg).roundtrip_ns);
    json.BeginSeries("sem_second");
    json.Row("sem_second", 0, MeasureSemaphore(cfg).roundtrip_ns);
  }
  const std::string body = ReadFile(path);
  ASSERT_FALSE(body.empty());
  const size_t a = body.find("\"sem_first\": {");
  const size_t b = body.find("\"sem_second\": {");
  ASSERT_NE(a, std::string::npos) << body;
  ASSERT_NE(b, std::string::npos) << body;
  ASSERT_LT(a, b);
  const long long waits_a = CounterIn(body.substr(a, b - a), "os/sem/futex_waits");
  const long long waits_b = CounterIn(body.substr(b), "os/sem/futex_waits");
  // Identical configs park a comparable number of times per window. A
  // missing reset would make the second window cumulative (~2x the first).
  ASSERT_GT(waits_a, 0);
  ASSERT_GT(waits_b, 0);
  EXPECT_LT(waits_b, waits_a * 2) << "second series inherited the first's counters";
  std::remove(path.c_str());
}

TEST(BenchEmitter, NoBeginSeriesKeepsWholeRunSnapshot) {
#ifdef DIPC_OBS_OFF
  GTEST_SKIP() << "observability compiled out (-DDIPC_OBS_OFF)";
#endif
  obs::Registry::Default().Reset();
  const std::string path = "BENCH_emitter_whole_test.json";
  std::remove(path.c_str());
  const Calls y;
  {
    Argv av({"bench", "--json", "--metrics"});
    JsonEmitter json("emitter_whole_test", av.argc, av.ptrs.data());
    y.counter->Add(4);
    json.Row("a", 1, 10.0);
    y.counter->Add(4);
    json.Row("a", 2, 20.0);
  }
  const std::string body = ReadFile(path);
  ASSERT_FALSE(body.empty());
  // Legacy shape: one cumulative snapshot for the whole binary.
  EXPECT_NE(body.find(y.key + "8"), std::string::npos) << body;
  std::remove(path.c_str());
}

TEST(BenchEmitter, MetricsFlagOffMakesBeginSeriesFree) {
#ifdef DIPC_OBS_OFF
  GTEST_SKIP() << "observability compiled out (-DDIPC_OBS_OFF)";
#endif
  obs::Registry::Default().Reset();
  const std::string path = "BENCH_emitter_off_test.json";
  std::remove(path.c_str());
  const Calls z;
  {
    Argv av({"bench", "--json"});
    JsonEmitter json("emitter_off_test", av.argc, av.ptrs.data());
    json.BeginSeries("window_a");
    z.counter->Add(7);
    json.Row("a", 1, 10.0);
    // Without --metrics, BeginSeries must not reset the registry (another
    // concurrent consumer may be reading it) and no metrics key is emitted.
    EXPECT_EQ(z.counter->value(), 7u);
    json.BeginSeries("window_b");
    EXPECT_EQ(z.counter->value(), 7u);
  }
  const std::string body = ReadFile(path);
  ASSERT_FALSE(body.empty());
  EXPECT_EQ(body.find("\"metrics\""), std::string::npos) << body;
  std::remove(path.c_str());
}

// The emitter is the benches' only argument parser: a mistyped flag must
// stop the bench instead of running it without the output that was asked
// for.
TEST(BenchEmitter, UnknownFlagPrintsUsageAndExits) {
  EXPECT_EXIT(
      {
        Argv av({"bench", "--metrics", "--jsn"});
        JsonEmitter json("emitter_usage_test", av.argc, av.ptrs.data());
      },
      testing::ExitedWithCode(2), "unknown argument '--jsn'.*\n.*usage: .*--json");
}

// Output that cannot be written fails the bench: a trace into a missing
// directory, and a BENCH json whose path is taken by a directory.
TEST(BenchEmitter, UnwritableOutputExitsNonZero) {
  EXPECT_EXIT(
      {
        {
          Argv av({"bench", "--trace=/nonexistent/dir/x.json"});
          JsonEmitter json("emitter_trace_fail_test", av.argc, av.ptrs.data());
        }
        std::exit(0);
      },
      testing::ExitedWithCode(1), "cannot write /nonexistent/dir/x.json");
  const std::string path = "BENCH_emitter_json_fail_test.json";
  rmdir(path.c_str());
  ASSERT_EQ(mkdir(path.c_str(), 0755), 0);
  EXPECT_EXIT(
      {
        {
          Argv av({"bench", "--json"});
          JsonEmitter json("emitter_json_fail_test", av.argc, av.ptrs.data());
        }
        std::exit(0);
      },
      testing::ExitedWithCode(1), "cannot write " + path);
  rmdir(path.c_str());
}

}  // namespace
}  // namespace dipc::bench
