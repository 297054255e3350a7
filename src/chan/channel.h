// Point-to-point zero-copy channels: the 1x1 view of the channel plane.
//
// A Channel moves bulk payloads from one sender process to one receiver
// process by transferring buffer ownership through CODOMs asynchronous
// capabilities (see chan/plane.h for the mechanism). It has no credit gate:
// a producer that outruns its consumer parks in the free-pool pop. Either
// peer's death breaks the channel: every in-flight capability is revoked
// and blocked Send/Recv calls wake with kCalleeFailed (KCS-style unwinding
// surfaced as an error code, §5.2.1).
//
// Batching: AcquireBufBatch/SendBatch/RecvBatch/ReleaseBatch move N
// messages per call; the single-message calls are the N=1 batch paths.
#ifndef DIPC_CHAN_CHANNEL_H_
#define DIPC_CHAN_CHANNEL_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "base/result.h"
#include "chan/plane.h"
#include "dipc/dipc.h"
#include "os/deadline.h"
#include "os/kernel.h"
#include "sim/task.h"

namespace dipc::chan {

struct ChannelConfig {
  uint32_t slots = 8;            // in-flight message buffers
  uint64_t buf_bytes = 1 << 16;  // payload capacity per buffer
  // Optional shared domain-tag trio (see PlaneConfig). Two channels in
  // opposite directions between the same peers (requests one way,
  // completions the other) express one trust relationship and share one.
  std::optional<TagTrio> tags = std::nullopt;
};

class Channel {
 public:
  static constexpr uint32_t kSenderCapReg = Plane::kSenderCapReg;
  static constexpr uint32_t kReceiverCapReg = Plane::kReceiverCapReg;

  // Creates a unidirectional sender->receiver channel between two
  // dIPC-enabled processes in `dipc`'s global VAS, and registers dead-peer
  // teardown with the runtime.
  static base::Result<std::shared_ptr<Channel>> Create(core::Dipc& dipc, os::Process& sender,
                                                       os::Process& receiver,
                                                       ChannelConfig cfg = {});

  // ---- Sender side ----

  // Blocks until a free buffer is available and grants the calling thread a
  // write capability for it (epoch rebind on the warm path).
  sim::Task<base::Result<SendBuf>> AcquireBuf(os::Env env, os::Deadline deadline = {}) {
    return plane_->AcquireBuf(env, 0, deadline);
  }
  // Blocks for the first free buffer, then takes up to `max_n` without
  // blocking again. The *last* buffer's write capability is loaded into
  // kSenderCapReg; BindSendCap switches between the batch's buffers.
  sim::Task<base::Result<std::vector<SendBuf>>> AcquireBufBatch(os::Env env, uint32_t max_n,
                                                                os::Deadline deadline = {}) {
    return plane_->AcquireBufBatch(env, 0, max_n, deadline);
  }

  // Publishes `len` bytes of `buf`: revokes the sender's capability
  // (subsequent sender access faults) and grants the receiver a read-only
  // one. O(1) in `len`. Batched: all-or-nothing up to the publish.
  sim::Task<base::Status> Send(os::Env env, const SendBuf& buf, uint64_t len,
                               os::Deadline deadline = {}) {
    return plane_->Send(env, 0, buf, len, 0, deadline);
  }
  sim::Task<base::Status> SendBatch(os::Env env, std::span<const SendItem> items,
                                    os::Deadline deadline = {}) {
    return plane_->SendBatch(env, 0, items, 0, deadline);
  }

  // Gives up acquired-but-unsent buffers: revokes the write capabilities and
  // returns the slots to the pool. Dropping a SendBuf on the floor instead
  // leaks the slot and eventually wedges every producer.
  sim::Task<base::Status> Abandon(os::Env env, const SendBuf& buf) {
    return plane_->Abandon(env, 0, buf);
  }
  sim::Task<base::Status> AbandonBatch(os::Env env, std::span<const SendBuf> bufs) {
    return plane_->AbandonBatch(env, 0, bufs);
  }

  // Re-loads `buf`'s write capability into kSenderCapReg (a register move).
  void BindSendCap(os::Thread& t, const SendBuf& buf) const { plane_->BindSendCap(t, buf); }

  // Orderly shutdown: the receiver drains in-flight messages, then Recv
  // fails with kBrokenChannel.
  void Close() { plane_->Close(); }

  // ---- Receiver side ----

  // Blocks until a message arrives and loads its capability into the calling
  // thread's register file. Fails with kBrokenChannel after Close() drains,
  // or kCalleeFailed once a peer process died.
  sim::Task<base::Result<Msg>> Recv(os::Env env, os::Deadline deadline = {}) {
    return plane_->Recv(env, 0, deadline);
  }
  // Blocks for the first message, then drains up to `max_n`; the *first*
  // message's capability lands in kReceiverCapReg.
  sim::Task<base::Result<std::vector<Msg>>> RecvBatch(os::Env env, uint32_t max_n,
                                                      os::Deadline deadline = {}) {
    return plane_->RecvBatch(env, 0, max_n, deadline);
  }

  // Returns buffers to the pool: revokes the receiver's capabilities and
  // unblocks a sender waiting in AcquireBuf.
  sim::Task<base::Status> Release(os::Env env, const Msg& msg) {
    return plane_->Release(env, 0, msg);
  }
  sim::Task<base::Status> ReleaseBatch(os::Env env, std::span<const Msg> msgs) {
    return plane_->ReleaseBatch(env, 0, msgs);
  }

  // Re-loads `msg`'s read capability into kReceiverCapReg (a register move).
  void BindRecvCap(os::Thread& t, const Msg& msg) const { plane_->BindRecvCap(t, 0, msg); }

  // ---- Introspection ----

  os::Process& sender_process() { return *plane_->tx(0).proc; }
  os::Process& receiver_process() { return *plane_->rx(0).proc; }
  ChannelConfig config() const {
    const PlaneConfig& c = plane_->config();
    return {c.slots, c.buf_bytes, c.tags};
  }
  base::ErrorCode broken() const { return plane_->broken(); }
  uint64_t sends() const { return plane_->sends(); }
  uint64_t recvs() const { return plane_->recvs(); }
  // Full capability mints (2 per slot once warm: one write + one read).
  uint64_t cold_mints() const { return plane_->cold_mints(); }
  uint64_t LiveGrantCount() const { return plane_->LiveGrantCount(); }
  hw::VirtAddr buf_va(uint32_t index) const { return plane_->buf_va(index); }
  const Plane& plane() const { return *plane_; }
  // Id under which this channel's metrics ("chan/<id>/...") and trace
  // events are attributed.
  uint32_t obs_id() const { return plane_->obs_id(); }

  // Dead-peer teardown (fired via the core::Dipc death hook).
  void OnProcessDeath(os::Process& proc) { plane_->OnProcessDeath(proc); }

 private:
  explicit Channel(std::shared_ptr<Plane> plane) : plane_(std::move(plane)) {}

  std::shared_ptr<Plane> plane_;
};

// fd-table endpoints, so channel ends can be delegated between processes
// (SCM_RIGHTS-style or returned from a dIPC entry call; §5.2.2).
class SenderEndpoint : public os::KernelObject {
 public:
  explicit SenderEndpoint(std::shared_ptr<Channel> ch) : ch_(std::move(ch)) {}
  std::string_view type_name() const override { return "chan[send]"; }
  Channel& channel() { return *ch_; }
  std::shared_ptr<Channel> shared() { return ch_; }

  sim::Task<base::Result<SendBuf>> AcquireBuf(os::Env env, os::Deadline dl = {}) {
    return ch_->AcquireBuf(env, dl);
  }
  sim::Task<base::Result<std::vector<SendBuf>>> AcquireBufBatch(os::Env env, uint32_t max_n,
                                                                os::Deadline dl = {}) {
    return ch_->AcquireBufBatch(env, max_n, dl);
  }
  sim::Task<base::Status> Send(os::Env env, const SendBuf& buf, uint64_t len,
                               os::Deadline dl = {}) {
    return ch_->Send(env, buf, len, dl);
  }
  sim::Task<base::Status> SendBatch(os::Env env, std::span<const SendItem> items,
                                    os::Deadline dl = {}) {
    return ch_->SendBatch(env, items, dl);
  }
  sim::Task<base::Status> Abandon(os::Env env, const SendBuf& buf) {
    return ch_->Abandon(env, buf);
  }
  sim::Task<base::Status> AbandonBatch(os::Env env, std::span<const SendBuf> bufs) {
    return ch_->AbandonBatch(env, bufs);
  }
  void BindSendCap(os::Thread& t, const SendBuf& buf) const { ch_->BindSendCap(t, buf); }
  void Close() { ch_->Close(); }

 private:
  std::shared_ptr<Channel> ch_;
};

class ReceiverEndpoint : public os::KernelObject {
 public:
  explicit ReceiverEndpoint(std::shared_ptr<Channel> ch) : ch_(std::move(ch)) {}
  std::string_view type_name() const override { return "chan[recv]"; }
  Channel& channel() { return *ch_; }
  std::shared_ptr<Channel> shared() { return ch_; }

  sim::Task<base::Result<Msg>> Recv(os::Env env, os::Deadline dl = {}) {
    return ch_->Recv(env, dl);
  }
  sim::Task<base::Result<std::vector<Msg>>> RecvBatch(os::Env env, uint32_t max_n,
                                                      os::Deadline dl = {}) {
    return ch_->RecvBatch(env, max_n, dl);
  }
  sim::Task<base::Status> Release(os::Env env, const Msg& msg) { return ch_->Release(env, msg); }
  sim::Task<base::Status> ReleaseBatch(os::Env env, std::span<const Msg> msgs) {
    return ch_->ReleaseBatch(env, msgs);
  }
  void BindRecvCap(os::Thread& t, const Msg& msg) const { ch_->BindRecvCap(t, msg); }

 private:
  std::shared_ptr<Channel> ch_;
};

}  // namespace dipc::chan

#endif  // DIPC_CHAN_CHANNEL_H_
