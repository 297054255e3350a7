// dipclint-path: src/apps/fix/good_predicate.cc
// Real still-blocked predicates: capturing lambdas re-checking state, with
// and without a settle callback after them.
#include "os/futex.h"

namespace dipc {

sim::Task<void> ParkUntilDrained(os::Env env, os::Futex& futex, const size_t& fill) {
  (void)co_await futex.Park(env, os::Deadline::Never(), [&] { return fill > 0; });
}

sim::Task<bool> ParkBounded(os::Env env, os::Futex& futex, os::Deadline d, const bool& closed,
                            size_t& fill) {
  const os::Futex::Woke woke = co_await futex.Park(
      env, d, [&] { return fill == 0 && !closed; },
      [&](os::Futex::Woke w) {
        if (w == os::Futex::Woke::kNotBlocked && fill > 0) {
          --fill;
        }
      });
  co_return woke == os::Futex::Woke::kTimedOut;
}

}  // namespace dipc
