// dipclint-path: src/apps/fix/good_sharded_batch.cc
// Batches consumed by the sharded send and by the batched give-up path.
#include "chan/fanout.h"

namespace dipc {

sim::Task<base::Status> ShardBurst(os::Env env, chan::FanOutChannel& fan, uint32_t shard) {
  auto batch = co_await fan.AcquireBufBatch(env, 4);
  if (!batch.ok()) {
    co_return batch.code();
  }
  std::vector<chan::SendItem> items;
  for (const chan::SendBuf& b : batch.value()) {
    items.push_back(chan::SendItem{b, 64});
  }
  base::Status sent = co_await fan.SendToBatch(env, items, shard);
  co_return sent;
}

sim::Task<base::Status> DropBurst(os::Env env, chan::FanOutChannel& fan) {
  auto batch = co_await fan.AcquireBufBatch(env, 4);
  if (!batch.ok()) {
    co_return batch.code();
  }
  base::Status dropped = co_await fan.AbandonBatch(env, batch.value());
  co_return dropped;
}

}  // namespace dipc
