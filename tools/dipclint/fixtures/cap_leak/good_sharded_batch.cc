// dipclint-path: src/apps/fix/good_sharded_batch.cc
// Plane batches consumed by the sharded send and by the batched give-up
// path.
#include "chan/plane.h"

namespace dipc {

sim::Task<base::Status> ShardBurst(os::Env env, chan::Plane& plane, uint32_t shard) {
  auto batch = co_await plane.AcquireBufBatch(env, 0, 4);
  if (!batch.ok()) {
    co_return batch.code();
  }
  std::vector<chan::SendItem> items;
  for (const chan::SendBuf& b : batch.value()) {
    items.push_back(chan::SendItem{b, 64});
  }
  base::Status sent = co_await plane.SendBatch(env, 0, items, shard);
  co_return sent;
}

sim::Task<base::Status> DropBurst(os::Env env, chan::Plane& plane) {
  auto batch = co_await plane.AcquireBufBatch(env, 0, 4);
  if (!batch.ok()) {
    co_return batch.code();
  }
  base::Status dropped = co_await plane.AbandonBatch(env, 0, batch.value());
  co_return dropped;
}

}  // namespace dipc
