// dipclint-path: src/apps/fix/bad_null_predicate.cc
// A null predicate through a futex pointer is no re-check either.
#include "os/futex.h"

namespace dipc {

sim::Task<void> ParkBounded(os::Env env, os::Futex* futex, os::Deadline d) {
  (void)co_await futex->Park(env, d, nullptr);
}

}  // namespace dipc
