// dipclint-path: src/apps/fix/bad_missing_predicate.cc
// No predicate at all: the park can never re-check the blocked condition.
#include "os/futex.h"

namespace dipc {

sim::Task<void> ParkBare(os::Env env, os::Futex& futex, os::Deadline d) {
  (void)co_await futex.Park(env, d);
}

}  // namespace dipc
