// dipclint-path: src/apps/fix/bad_trivial_predicate.cc
// A constant-true predicate defeats the wake-precedes-park re-check: a
// wake issued between the caller's own test and the park is lost forever.
#include "os/futex.h"

namespace dipc {

sim::Task<void> ParkForever(os::Env env, os::Futex& futex) {
  (void)co_await futex.Park(env, os::Deadline::Never(), [] { return true; });
}

}  // namespace dipc
