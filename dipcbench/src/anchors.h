// Paper anchors: the numbers the simulator's cost model is calibrated
// against, with where they come from. Source: Vilanova et al., "Direct
// Inter-Process Communication (dIPC): Repurposing the CODOMs Architecture to
// Accelerate IPC", EuroSys 2017. The model is unvalidated beyond these
// anchors; the paper has no reference for the stream and fabric workloads, so
// they report no paper_err.
#ifndef DIPCBENCH_ANCHORS_H_
#define DIPCBENCH_ANCHORS_H_

#include <algorithm>
#include <cmath>

namespace dipcbench {

struct Anchor {
  const char* name;    // measured ratio
  double paper;        // the paper's value
  bool at_least;       // a lower bound ("dIPC at >= 94% of Ideal"): no error above it
  const char* source;
};

// Fig. 5 / §7.2, synchronous calls with a 1-byte argument (calls workload).
inline constexpr Anchor kFig5Anchors[] = {
    {"rpc_same/dipc_proc_high", 64.12, false, "Fig. 5, 7.2: dIPC 64.12x faster than local RPC"},
    {"l4_same/dipc_proc_high", 8.87, false, "Fig. 5, 7.2: dIPC 8.87x faster than L4"},
    {"dipc_high/dipc_low", 8.47, false, "Fig. 5, 7.2: asymmetric policies span up to 8.47x"},
    {"sem_same/dipc_proc_high", 14.16, false, "7.2: cross-process speedups from 14.16x"},
    {"rpc_same/dipc_proc_low", 120.67, false, "7.2: cross-process speedups up to 120.67x"},
};

// Fig. 8 at 16 threads (the paper's peak) and §7.5 (oltp workload).
inline constexpr Anchor kOltpAnchors[] = {
    {"speedup_disk", 3.18, false, "Fig. 8: dIPC 3.18x over Linux, on-disk DB, 16 threads"},
    {"speedup_mem", 5.12, false, "Fig. 8: dIPC 5.12x over Linux, in-memory DB, 16 threads"},
    {"dipc_vs_ideal", 0.94, true, "Fig. 8: dIPC at >= 94% of Ideal"},
    {"calls_per_op", 211, false, "7.5: about 211 cross-domain calls per operation"},
};

// |ln(measured / paper)|; a lower-bound anchor only counts a shortfall.
inline double AnchorError(const Anchor& a, double measured) {
  if (!(measured > 0)) {
    return 10.0;  // a missing measurement counts as far off, never as a match
  }
  double e = std::log(measured / a.paper);
  return a.at_least ? std::max(0.0, -e) : std::abs(e);
}

}  // namespace dipcbench

#endif  // DIPCBENCH_ANCHORS_H_
