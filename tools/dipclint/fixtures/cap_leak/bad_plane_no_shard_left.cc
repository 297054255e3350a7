// dipclint-path: src/apps/fix/bad_plane_no_shard_left.cc
// A plane acquire (producer index as the second argument) whose buffer is
// dropped when no live shard is left: the early return skips the Abandon.
#include "chan/plane.h"

namespace dipc {

sim::Task<base::Status> ShardOne(os::Env env, chan::Plane& plane) {
  auto buf = co_await plane.AcquireBuf(env, 0);
  if (!buf.ok()) {
    co_return buf.code();
  }
  const uint32_t shard = plane.NextShard();
  if (shard >= plane.rx_count()) {
    co_return base::ErrorCode::kCalleeFailed;  // leaks buf: no Abandon
  }
  co_return co_await plane.Send(env, 0, buf.value(), 64, shard);
}

}  // namespace dipc
