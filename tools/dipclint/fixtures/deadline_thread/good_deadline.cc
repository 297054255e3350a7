// The compliant shape: a defaulted os::Deadline parameter (default = Never
// preserves untimed callers) threaded through to os::Futex::Park.
#include "os/deadline.h"
#include "os/futex.h"
#include "sim/task.h"

namespace dipc::chan {

class Pipe {
 public:
  sim::Task<base::Status> Write(os::Env env, uint64_t value, os::Deadline deadline = {});
  sim::Task<base::Result<uint64_t>> Read(os::Env env, os::Deadline deadline = {});
};

}  // namespace dipc::chan
