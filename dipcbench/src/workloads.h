// The four benchmark workloads. Each one builds its simulated world from the
// seed, runs a fixed input through public calls only and checks the outputs.
#ifndef DIPCBENCH_WORKLOADS_H_
#define DIPCBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"

namespace dipcbench {

struct Workload {
  const char* name;
  // One full round: set-up, warm-up, measured window, checks. `spans` is
  // null in untraced rounds.
  Round (*round)(uint64_t seed, Spans* spans);
  // Set-up alone; returns its host seconds.
  double (*setup)(uint64_t seed);
};

Round CallsRound(uint64_t seed, Spans* spans);
double CallsSetup(uint64_t seed);
Round StreamRound(uint64_t seed, Spans* spans);
double StreamSetup(uint64_t seed);
Round FabricRound(uint64_t seed, Spans* spans);
double FabricSetup(uint64_t seed);
Round OltpRound(uint64_t seed, Spans* spans);
double OltpSetup(uint64_t seed);

inline const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kAll = {
      {"calls", CallsRound, CallsSetup},
      {"stream", StreamRound, StreamSetup},
      {"fabric", FabricRound, FabricSetup},
      {"oltp", OltpRound, OltpSetup},
  };
  return kAll;
}

}  // namespace dipcbench

#endif  // DIPCBENCH_WORKLOADS_H_
