// M-producer / one-consumer fan-in channels: the Mx1 view of the channel
// plane (chan/plane.h).
//
// The paper's server tiers are fed from many client domains at once, so the
// plane also needs the N->1 shape: many producers publishing into one
// consumer's FIFO (an MpmcQueue, natively multi-producer). Each producer
// holds its own epoch-rebindable write capability per slot, tagged with its
// own RevocationTable owner key, so a dead producer is excised individually:
// its acquired-but-unsent slots return to the pool, its published messages
// stay deliverable (the payload is immutable and consumer-owned by then),
// and the group keeps flowing. The consumer's death breaks the channel.
//
// Flow control is credit-based *per producer*: AcquireBuf takes one
// admission credit per slot and the slot's return to the pool refunds it,
// so one greedy (or dead) producer can pin at most its own credit line of
// the shared pool and never starve the rest of the group.
#ifndef DIPC_CHAN_FANIN_H_
#define DIPC_CHAN_FANIN_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "base/result.h"
#include "chan/plane.h"
#include "dipc/dipc.h"
#include "os/deadline.h"
#include "os/kernel.h"
#include "sim/task.h"

namespace dipc::chan {

// `credits` is the per-producer credit line (0 = slots).
using FanInConfig = PlaneConfig;

class FanInChannel {
 public:
  static constexpr uint32_t kSenderCapReg = Plane::kSenderCapReg;
  static constexpr uint32_t kReceiverCapReg = Plane::kReceiverCapReg;

  // Creates a {producers} -> consumer fan-in channel in `dipc`'s global VAS
  // and registers dead-peer teardown for every endpoint process.
  static base::Result<std::shared_ptr<FanInChannel>> Create(
      core::Dipc& dipc, std::span<os::Process* const> producers, os::Process& consumer,
      FanInConfig cfg = {}) {
    os::Process* rx[] = {&consumer};
    return Plane::Create<FanInChannel>(dipc, Gate::kAdmission, producers, rx, cfg);
  }

  // ---- Producer side (every call names the producer index) ----

  // Credit-gated acquire: blocks until producer `p` has admission credit,
  // then pops up to min(max_n, credits) free buffers and grants p's write
  // capabilities. A finite `deadline` bounds the credit wait and the pool
  // pop with kTimedOut (no credits consumed, no grants held).
  sim::Task<base::Result<SendBuf>> AcquireBuf(os::Env env, uint32_t producer,
                                              os::Deadline deadline = {}) {
    return plane_.AcquireOne(env, producer, deadline);
  }
  sim::Task<base::Result<std::vector<SendBuf>>> AcquireBufBatch(os::Env env, uint32_t producer,
                                                                uint32_t max_n,
                                                                os::Deadline deadline = {}) {
    return plane_.Acquire(env, producer, max_n, deadline);
  }

  // Publish: the consumer gets a read-only capability over the (immutable)
  // payload. Never blocks for queue space (admission was paid at acquire).
  // While broken() == kOk a failed send leaves the producer owning every
  // buffer (retry, or Abandon); kCalleeFailed once the consumer is gone.
  sim::Task<base::Status> Send(os::Env env, uint32_t producer, const SendBuf& buf,
                               uint64_t len) {
    return plane_.PublishOne(env, producer, buf, len, 0, {});
  }
  sim::Task<base::Status> SendBatch(os::Env env, uint32_t producer,
                                    std::span<const SendItem> items) {
    return plane_.Publish(env, producer, items, 0, {});
  }

  // Returns acquired-but-unsent buffers to the pool (revoking the write
  // grants and refunding the admission credits).
  sim::Task<base::Status> Abandon(os::Env env, uint32_t producer, const SendBuf& buf) {
    return plane_.Abandon(env, producer, std::span(&buf, 1));
  }
  sim::Task<base::Status> AbandonBatch(os::Env env, uint32_t producer,
                                       std::span<const SendBuf> bufs) {
    return plane_.Abandon(env, producer, bufs);
  }

  void BindSendCap(os::Thread& t, const SendBuf& buf) const { plane_.BindSendCap(t, buf); }

  // Orderly shutdown: the consumer drains, then sees kBrokenChannel.
  void Close() { plane_.Close(); }

  // ---- Consumer side ----

  sim::Task<base::Result<Msg>> Recv(os::Env env, os::Deadline deadline = {}) {
    return plane_.RecvOne(env, 0, deadline);
  }
  sim::Task<base::Result<std::vector<Msg>>> RecvBatch(os::Env env, uint32_t max_n,
                                                      os::Deadline deadline = {}) {
    return plane_.Recv(env, 0, max_n, deadline);
  }

  // Returns the slot to the pool and the admission credit to the producer
  // that sent it.
  sim::Task<base::Status> Release(os::Env env, const Msg& msg) {
    return plane_.Release(env, 0, std::span(&msg, 1));
  }
  sim::Task<base::Status> ReleaseBatch(os::Env env, std::span<const Msg> msgs) {
    return plane_.Release(env, 0, msgs);
  }

  void BindRecvCap(os::Thread& t, const Msg& msg) const { plane_.BindRecvCap(t, 0, msg); }

  // ---- Introspection ----

  uint32_t producer_count() const { return plane_.tx_count(); }
  uint32_t live_producer_count() const { return plane_.live_count(Side::kTx); }
  bool producer_alive(uint32_t p) const { return p < producer_count() && plane_.tx(p).alive; }
  uint32_t credit_line() const { return plane_.credit_line(); }
  uint64_t credits(uint32_t p) const { return plane_.tx(p).credits; }
  // RevocationTable owner keys of producer p's write grants and of the
  // consumer's read grants (test support).
  uint64_t producer_owner(uint32_t p) const { return plane_.tx(p).key; }
  uint64_t consumer_owner() const { return plane_.rx(0).key; }
  const FanInConfig& config() const { return plane_.config(); }
  base::ErrorCode broken() const { return plane_.broken(); }
  uint64_t sends() const { return plane_.sends(); }
  uint64_t recvs() const { return plane_.recvs(); }
  uint64_t cold_mints() const { return plane_.cold_mints(); }
  uint64_t blocked_on_credit() const { return plane_.blocked_on_credit(); }
  uint64_t LiveGrantCount() const { return plane_.LiveGrantCount(); }
  hw::VirtAddr buf_va(uint32_t index) const { return plane_.buf_va(index); }
  const Plane& plane() const { return plane_; }
  // Id under which this group's metrics ("fanin/<id>/...", per-producer
  // "tx/<p>/...") and trace events are attributed.
  uint32_t obs_id() const { return plane_.obs_id(); }

  // Dead-peer teardown (fired via the core::Dipc death hook).
  void OnProcessDeath(os::Process& proc) { plane_.OnProcessDeath(proc); }

  // Rebinds an excised producer slot to a fresh process (the supervisor's
  // respawn path): fresh owner key, cleared templates, a full credit line
  // and APL grants. Late releases of the dead incarnation's messages do not
  // refund the fresh line.
  base::Status RebindProducer(uint32_t producer, os::Process& proc) {
    return plane_.Rebind(Side::kTx, producer, proc);
  }

 private:
  friend class Plane;
  FanInChannel() = default;

  Plane plane_;
};

}  // namespace dipc::chan

#endif  // DIPC_CHAN_FANIN_H_
