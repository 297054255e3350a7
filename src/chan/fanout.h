// One-producer / N-receiver fan-out channels: the 1xN view of the channel
// plane (chan/plane.h).
//
// The paper's server scenarios (OLTP tiers, isolated drivers) are
// one-to-many: one producer tier feeding many worker domains. Each receiver
// has its own descriptor FIFO and its own epoch-rebindable read capability
// per slot, tagged with its own RevocationTable owner key, so a dead
// receiver is excised individually and the group keeps flowing; the
// producer's death breaks the group.
//
// Flow control is credit-based: every receiver starts with a full credit
// line, a delivery consumes one credit, a release returns it. The producer
// blocks only while the *slowest live* receiver (or, for SendTo, the target)
// is out of credit. Send/SendBatch broadcast to every live receiver (a slot
// returns to the pool when the last one releases it); SendTo/SendToBatch
// shard to one receiver, and NextShard() round-robins over live receivers.
#ifndef DIPC_CHAN_FANOUT_H_
#define DIPC_CHAN_FANOUT_H_

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

// `credits` is the per-receiver credit line (0 = slots).
using FanOutConfig = PlaneConfig;

class FanOutChannel {
 public:
  static constexpr uint32_t kSenderCapReg = Plane::kSenderCapReg;
  static constexpr uint32_t kReceiverCapReg = Plane::kReceiverCapReg;

  // Creates a producer -> {receivers} fan-out channel in `dipc`'s global VAS
  // and registers dead-peer teardown for every endpoint process.
  static base::Result<std::shared_ptr<FanOutChannel>> Create(
      core::Dipc& dipc, os::Process& producer, std::span<os::Process* const> receivers,
      FanOutConfig cfg = {}) {
    os::Process* tx[] = {&producer};
    return Plane::Create<FanOutChannel>(dipc, Gate::kDelivery, tx, receivers, cfg);
  }

  // ---- Producer side ----

  // Credit-gated acquire: blocks until every live receiver has credit, then
  // pops up to `max_n` free buffers and grants write capabilities. A finite
  // `deadline` bounds the credit wait and the pool pop with kTimedOut.
  sim::Task<base::Result<SendBuf>> AcquireBuf(os::Env env, os::Deadline deadline = {}) {
    return plane_.AcquireOne(env, 0, deadline);
  }
  sim::Task<base::Result<std::vector<SendBuf>>> AcquireBufBatch(os::Env env, uint32_t max_n,
                                                                os::Deadline deadline = {}) {
    return plane_.Acquire(env, 0, max_n, deadline);
  }

  // Broadcast publish: every live receiver gets its own read-only capability
  // over the (immutable) payload. Fails with kCalleeFailed when no live
  // receiver remains; kTimedOut (finite deadline) means nothing was
  // published and the producer still owns every buffer.
  sim::Task<base::Status> Send(os::Env env, const SendBuf& buf, uint64_t len,
                               os::Deadline deadline = {}) {
    return plane_.PublishOne(env, 0, buf, len, receiver_count(), deadline);
  }
  sim::Task<base::Status> SendBatch(os::Env env, std::span<const SendItem> items,
                                    os::Deadline deadline = {}) {
    return plane_.Publish(env, 0, items, receiver_count(), deadline);
  }

  // Sharded publish to one receiver (waits for that receiver's credit).
  // Fails with kCalleeFailed if the receiver died; while broken() == kOk the
  // producer still owns the buffers of a failed send and may SendTo another
  // shard or Abandon them.
  sim::Task<base::Status> SendTo(os::Env env, const SendBuf& buf, uint64_t len,
                                 uint32_t receiver, os::Deadline deadline = {}) {
    return plane_.PublishOne(env, 0, buf, len, receiver, deadline);
  }
  sim::Task<base::Status> SendToBatch(os::Env env, std::span<const SendItem> items,
                                      uint32_t receiver, os::Deadline deadline = {}) {
    return plane_.Publish(env, 0, items, receiver, deadline);
  }

  // Returns acquired-but-unsent buffers to the pool (revoking the write
  // grants) — the give-up path when every shard is gone.
  sim::Task<base::Status> Abandon(os::Env env, const SendBuf& buf) {
    return plane_.Abandon(env, 0, std::span(&buf, 1));
  }
  sim::Task<base::Status> AbandonBatch(os::Env env, std::span<const SendBuf> bufs) {
    return plane_.Abandon(env, 0, bufs);
  }

  uint32_t NextShard() { return plane_.NextShard(); }
  void BindSendCap(os::Thread& t, const SendBuf& buf) const { plane_.BindSendCap(t, buf); }

  // Orderly shutdown: receivers drain, then see kBrokenChannel.
  void Close() { plane_.Close(); }

  // ---- Receiver side (every call names the receiver index) ----

  sim::Task<base::Result<Msg>> Recv(os::Env env, uint32_t receiver,
                                    os::Deadline deadline = {}) {
    return plane_.RecvOne(env, receiver, deadline);
  }
  sim::Task<base::Result<std::vector<Msg>>> RecvBatch(os::Env env, uint32_t receiver,
                                                      uint32_t max_n,
                                                      os::Deadline deadline = {}) {
    return plane_.Recv(env, receiver, max_n, deadline);
  }

  // Returns credit to the producer, and the slot to the pool once the last
  // live receiver released it.
  sim::Task<base::Status> Release(os::Env env, uint32_t receiver, const Msg& msg) {
    return plane_.Release(env, receiver, std::span(&msg, 1));
  }
  sim::Task<base::Status> ReleaseBatch(os::Env env, uint32_t receiver,
                                       std::span<const Msg> msgs) {
    return plane_.Release(env, receiver, msgs);
  }

  void BindRecvCap(os::Thread& t, uint32_t receiver, const Msg& msg) const {
    plane_.BindRecvCap(t, receiver, msg);
  }

  // ---- Introspection ----

  uint32_t receiver_count() const { return plane_.rx_count(); }
  uint32_t live_receiver_count() const { return plane_.live_count(Side::kRx); }
  bool receiver_alive(uint32_t r) const { return r < receiver_count() && plane_.rx(r).alive; }
  uint32_t credit_line() const { return plane_.credit_line(); }
  uint64_t credits(uint32_t r) const { return plane_.rx(r).credits; }
  // RevocationTable owner key of receiver r's read grants (test support).
  uint64_t receiver_owner(uint32_t r) const { return plane_.rx(r).key; }
  const FanOutConfig& config() const { return plane_.config(); }
  base::ErrorCode broken() const { return plane_.broken(); }
  uint64_t sends() const { return plane_.sends(); }            // messages published
  uint64_t deliveries() const { return plane_.deliveries(); }  // per-receiver deliveries
  uint64_t recvs() const { return plane_.recvs(); }
  uint64_t cold_mints() const { return plane_.cold_mints(); }
  uint64_t blocked_on_credit() const { return plane_.blocked_on_credit(); }
  uint64_t LiveGrantCount() const { return plane_.LiveGrantCount(); }
  hw::VirtAddr buf_va(uint32_t index) const { return plane_.buf_va(index); }
  const Plane& plane() const { return plane_; }
  // Id under which this group's metrics ("fanout/<id>/...") and trace
  // events are attributed.
  uint32_t obs_id() const { return plane_.obs_id(); }

  // Dead-peer teardown (fired via the core::Dipc death hook).
  void OnProcessDeath(os::Process& proc) { plane_.OnProcessDeath(proc); }

  // Rebinds an excised receiver slot to a fresh process (the supervisor's
  // respawn path): fresh owner key, fresh descriptor FIFO, cleared
  // templates, a full credit line and APL grants for `proc`.
  base::Status RebindReceiver(uint32_t receiver, os::Process& proc) {
    return plane_.Rebind(Side::kRx, receiver, proc);
  }

 private:
  friend class Plane;
  FanOutChannel() = default;

  Plane plane_;
};

}  // namespace dipc::chan

#endif  // DIPC_CHAN_FANOUT_H_
