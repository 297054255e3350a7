// dipclint-path: src/apps/fix/bad_raw_probe.cc
// Raw Injector access outside src/fault/: bypasses the manifest macro, so
// the site is not listed in the probe manifest.
#include "fault/fault.h"

namespace dipc {

void Frob(fault::Injector& injector) {
  if (injector.Probe("chan/send")) {
    return;
  }
}

}  // namespace dipc
