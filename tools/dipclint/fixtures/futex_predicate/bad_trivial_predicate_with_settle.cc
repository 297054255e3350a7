// dipclint-path: src/apps/fix/bad_trivial_predicate_with_settle.cc
// The predicate is Park's third argument even when a settle callback
// follows it: a real settle must not hide a constant predicate.
#include "os/futex.h"

namespace dipc {

sim::Task<void> ParkSettled(os::Env env, os::Futex& futex, os::Deadline d, bool& woken) {
  (void)co_await futex.Park(env, d, [] { return false; },
                            [&](os::Futex::Woke w) { woken = w == os::Futex::Woke::kWoken; });
}

}  // namespace dipc
