// Benchmark runner: runs one round of one workload and prints what it
// measured as one JSON line. dipcbench/run.py starts this binary once per
// round, so every round starts from a fresh process (obs::Registry keeps
// every entry ever made, and a later round in the same process would search
// and snapshot a larger registry), and takes the medians across rounds.
//
//   dipcbench --workload calls --seed 1 --mode round|traced|setup [--spans-out F]
//
// round:  set-up, warm-up, measured window and checks, untraced.
// traced: the same with the span recorder on; adds the span count and the
//         self time of every span layer.
// setup:  set-up alone; prints only its host seconds.
//
// The result line holds the round's fields (see Round in harness.h), its
// failed checks and report lines, and its simulated values in "sim". A
// non-finite value is printed as null. Exits 0 when no check failed.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace dipcbench {
namespace {

std::string Num(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string StrList(const std::vector<std::string>& v) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    out += (i > 0 ? ", " : "") + Str(v[i]);
  }
  return out + "]";
}

std::string ToJson(const Round& r, const Spans* spans) {
  std::string o = "{\"setup_host_s\": " + Num(r.setup_host_s) + ", \"host_s\": " + Num(r.host_s) +
                  ", \"events\": " + std::to_string(r.events) + ", \"ops\": " + Num(r.ops) +
                  ", \"event_host_s\": " + Num(r.event_host_s) +
                  ", \"attempted\": " + std::to_string(r.attempted) +
                  ", \"failed\": " + std::to_string(r.failed) + ", \"errors\": " +
                  StrList(r.errors) + ", \"report\": " + StrList(r.report) + ", \"sim\": {";
  const char* sep = "";
  for (const auto& [k, v] : r.sim) {
    o += sep + Str(k) + ": " + Num(v);
    sep = ", ";
  }
  o += "}";
  if (spans != nullptr) {
    o += ", \"spans\": " + std::to_string(spans->spans().size()) + ", \"self\": {";
    sep = "";
    for (const auto& [layer, t] : spans->SelfTimes()) {
      o += sep + Str(layer) + ": {\"sim_ns\": " + Num(t.sim_ns) + ", \"host_ns\": " +
           Num(t.host_ns) + ", \"count\": " + std::to_string(t.count) + "}";
      sep = ", ";
    }
    o += "}";
  }
  return o + "}";
}

int Main(int argc, char** argv) {
  std::string workload, mode, spans_out;
  uint64_t seed = 0;
  bool ok = argc % 2 == 1;
  for (int i = 1; ok && i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      workload = v;
    } else if (k == "--seed") {
      seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--mode") {
      mode = v;
    } else if (k == "--spans-out") {
      spans_out = v;
    } else {
      ok = false;
    }
  }
  ok = ok && (mode == "round" || mode == "traced" || mode == "setup");
  const Workload* wl = nullptr;
  for (const Workload& w : Workloads()) {
    if (workload == w.name) {
      wl = &w;
    }
  }
  if (!ok || wl == nullptr) {
    std::fprintf(stderr,
                 "usage: dipcbench --workload calls|stream|fabric|oltp --seed N "
                 "--mode round|traced|setup [--spans-out FILE]\n");
    return 2;
  }

  if (mode == "setup") {
    std::printf("{\"setup_host_s\": %s}\n", Num(wl->setup(seed)).c_str());
    return 0;
  }
  Spans spans;
  const bool traced = mode == "traced";
  Round r = wl->round(seed, traced ? &spans : nullptr);
  if (traced && !spans_out.empty() && !spans.WriteJsonl(spans_out)) {
    r.Fail("cannot write spans to " + spans_out);
  }
  std::printf("%s\n", ToJson(r, traced ? &spans : nullptr).c_str());
  return r.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace dipcbench

int main(int argc, char** argv) { return dipcbench::Main(argc, argv); }
