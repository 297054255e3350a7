// dipclint-path: src/os/futex.h
// A park in the futex header with no way to bound it: the deadline of a
// blocking caller could never reach the kernel.
#include "sim/task.h"

namespace dipc::os {

class Futex {
 public:
  template <typename Pred>
  sim::Task<bool> Park(Env env, Pred still_blocked);
};

}  // namespace dipc::os
