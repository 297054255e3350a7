// The channel plane: one capability-granted zero-copy descriptor plane for
// M producers and N receivers on the dIPC global VAS.
//
// A plane moves bulk payloads between dIPC-enabled processes without copying
// and without per-message kernel crossings, by transferring *ownership* of
// fixed message buffers instead of bytes (the paper's
// immutability-by-ownership design, §3/§5, applied to streaming IPC):
//
//   - Message buffers live in a dedicated *data domain* that no endpoint's
//     APL can reach. Payload access happens exclusively through CODOMs
//     asynchronous capabilities (§4.2) held in capability registers.
//   - Capabilities are minted by a trusted *runtime* domain (the only domain
//     with an APL grant over the data domain) — the same trusted-intermediary
//     pattern as dIPC's proxies, entered by a plain cross-domain call at
//     function-call cost.
//   - Publishing revokes the producer's write capability (one
//     revocation-counter bump: immediate, unprivileged) and hands every
//     destination receiver its *own* read-only capability through its own
//     capability-storage slot. The payload never moves; cost is O(1) in
//     message size.
//   - Control flow is a free-buffer MpmcQueue plus one descriptor FIFO per
//     receiver, in a control segment every endpoint domain can access.
//     The queues and the credit gate block through os::Futex, so an idle
//     endpoint costs nothing and every park and wake pays one futex path.
//
// Epoch-cached grants: each (endpoint, slot) capability is minted through the
// runtime's APL exactly once and then *cached*; ownership rotates by
// revocation-counter arithmetic alone (Codoms::CapRebind), so the steady
// state mints nothing and walks no APL. Every counter carries its endpoint's
// RevocationTable owner key, so one endpoint's grants are revocable — and
// auditable — as a set.
//
// Batching: every operation moves N messages per call, paying one queue op,
// one runtime entry, one accounting charge and at most one futex wake per
// queue touched.
//
// Callers drive the plane directly, naming the producer or receiver index on
// every call; the Gate is the only per-shape datum:
//   - kNone (1x1, wrapped by the Channel view): no credit lines — the
//     producer parks in the free-pool pop, and either endpoint's death
//     breaks the plane.
//   - kDelivery (fan-out, 1xN): one credit line per receiver, taken per
//     delivery and returned by its release; broadcast waits for the slowest
//     live receiver. A dead receiver is excised alone; the producer's death
//     breaks the plane.
//   - kAdmission (fan-in, Mx1): one credit line per producer, taken at
//     acquire and returned when the slot goes back to the pool. A dead
//     producer is excised alone; the consumer's death breaks the plane.
// Excised endpoints can be rebound to a fresh process (the supervisor's
// respawn path). Death breaks are KCS-style unwinds (§5.2.1): every
// in-flight grant is revoked and blocked calls wake with kCalleeFailed.
#ifndef DIPC_CHAN_PLANE_H_
#define DIPC_CHAN_PLANE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "base/result.h"
#include "chan/mpmc_queue.h"
#include "chan/segment.h"
#include "codoms/apl.h"
#include "codoms/capability.h"
#include "dipc/dipc.h"
#include "obs/metrics.h"
#include "os/deadline.h"
#include "os/futex.h"
#include "os/kernel.h"
#include "sim/task.h"

namespace dipc::chan {

// The domain tags of one plane: its control segment, its data domain and its
// trusted runtime domain. Only Allocate builds one, so a trio is always
// whole. Planes that express the same trust relationship (e.g. many
// per-worker planes between the same two tiers) share one, which keeps the
// per-CPU APL cache (32 entries, §4.3) from thrashing at hundreds of planes.
struct TagTrio {
  hw::DomainTag ctrl;
  hw::DomainTag data;
  hw::DomainTag rt;

  // Allocates ctrl, data and rt, in that order.
  static TagTrio Allocate(codoms::AplTable& apl) {
    const hw::DomainTag ctrl = apl.AllocateTag();
    const hw::DomainTag data = apl.AllocateTag();
    return TagTrio(ctrl, data, apl.AllocateTag());
  }
  bool operator==(const TagTrio&) const = default;

 private:
  TagTrio(hw::DomainTag c, hw::DomainTag d, hw::DomainTag r) : ctrl(c), data(d), rt(r) {}
};

struct PlaneConfig {
  uint32_t slots = 8;            // in-flight message buffers (shared pool)
  uint64_t buf_bytes = 1 << 16;  // payload capacity per buffer
  // Credit line per gated endpoint (0 = slots): the most deliveries one
  // receiver may hold unreleased (fan-out), or the most pool slots one
  // producer may hold (fan-in). Set it below `slots` to keep one laggard or
  // flooder from pinning the shared pool.
  uint32_t credits = 0;
  // A pinned tag trio to share with other planes; empty allocates a fresh
  // one. A plane's config() always holds the trio it uses.
  std::optional<TagTrio> tags = std::nullopt;
};

// A buffer the producer owns (write capability in kSenderCapReg). `tctx` is
// the packed request trace context (chan/desc.h PackTraceWord): nonzero
// values ride the descriptor's side-band word to the receiver, correlating
// the hop with the originating fabric call. 0 = untraced.
struct SendBuf {
  hw::VirtAddr va = 0;
  uint64_t capacity = 0;
  uint32_t index = 0;
  uint64_t tctx = 0;
};

// A buffer plus its payload length, for batched sends.
struct SendItem {
  SendBuf buf;
  uint64_t len = 0;
};

// A received message (read capability in kReceiverCapReg). `tctx` carries
// the producer's packed trace context, 0 when untraced.
struct Msg {
  hw::VirtAddr va = 0;
  uint64_t len = 0;
  uint32_t index = 0;
  uint64_t tctx = 0;
};

// Which endpoints carry credit lines, and so which side's deaths the plane
// survives (see the top of this file).
enum class Gate { kNone, kDelivery, kAdmission };
// A plane's producers (kTx) or receivers (kRx).
enum class Side : uint8_t { kTx, kRx };

class Plane {
 public:
  // Capability-register convention for ownership caps.
  static constexpr uint32_t kSenderCapReg = 6;
  static constexpr uint32_t kReceiverCapReg = 7;

  // One producer or receiver incarnation.
  struct Endpoint {
    os::Process* proc = nullptr;
    uint64_t key = 0;  // RevocationTable owner key of this incarnation's grants
    bool alive = true;
    uint64_t credits = 0;                 // credit line (gated side only)
    std::unique_ptr<MpmcQueue> desc;      // descriptor FIFO (receivers only)
    obs::Counter* m_traffic = nullptr;    // rx/<r>/deliveries or tx/<p>/sends
    obs::Gauge* m_credits = nullptr;
    obs::Histogram* m_stall_ns = nullptr;
  };

  Plane(const Plane&) = delete;
  Plane& operator=(const Plane&) = delete;

  // Builds a plane over producers `tx` and receivers `rx` in `dipc`'s global
  // VAS and registers dead-peer teardown for every endpoint process.
  static base::Result<std::shared_ptr<Plane>> Create(core::Dipc& dipc, Gate gate,
                                                     std::span<os::Process* const> tx,
                                                     std::span<os::Process* const> rx,
                                                     const PlaneConfig& cfg = {});

  // ---- Producer side (`p` names the producer) ----

  // Waits for the gate (and a free buffer), then grants producer p write
  // capabilities over up to `max_n` buffers; the *last* one is loaded into
  // kSenderCapReg. A finite `deadline` bounds every wait with kTimedOut and
  // leaves no grant or credit behind.
  sim::Task<base::Result<std::vector<SendBuf>>> AcquireBufBatch(os::Env env, uint32_t p,
                                                                uint32_t max_n,
                                                                os::Deadline deadline = {});
  sim::Task<base::Result<SendBuf>> AcquireBuf(os::Env env, uint32_t p,
                                              os::Deadline deadline = {});

  // Publishes `items` to receiver `target`, or to every live receiver when
  // `target` == rx_count(). Each destination gets its own read grant; the
  // producer's write ownership ends before any descriptor is visible.
  // While broken() == kOk a send that fails before publishing leaves the
  // producer owning every buffer (re-shard, retry, or Abandon). A Close
  // racing the publish fails it with kBrokenChannel and revokes what did not
  // land.
  sim::Task<base::Status> SendBatch(os::Env env, uint32_t p, std::span<const SendItem> items,
                                    uint32_t target, os::Deadline deadline = {});
  sim::Task<base::Status> Send(os::Env env, uint32_t p, const SendBuf& buf, uint64_t len,
                               uint32_t target, os::Deadline deadline = {});

  // Gives acquired-but-unsent buffers back to the pool, revoking p's write
  // grants (and refunding admission credit). Dropping a SendBuf on the floor
  // instead leaks the slot and eventually wedges every producer.
  sim::Task<base::Status> AbandonBatch(os::Env env, uint32_t p, std::span<const SendBuf> bufs);
  sim::Task<base::Status> Abandon(os::Env env, uint32_t p, const SendBuf& buf) {
    return AbandonBatch(env, p, std::span(&buf, 1));
  }

  // Round-robin over live receivers; rx_count() when none is alive.
  uint32_t NextShard();

  // Re-loads `buf`'s write capability into kSenderCapReg (a register move).
  void BindSendCap(os::Thread& t, const SendBuf& buf) const;

  // ---- Receiver side (`r` names the receiver) ----

  // Blocks for the first descriptor, then drains up to `max_n` without
  // blocking again; the *first* message's capability lands in
  // kReceiverCapReg. Fails with kBrokenChannel after Close() drains, or
  // kCalleeFailed once a fatal peer (or this receiver) died. A slot whose
  // stored capability was destroyed by a plain write is recycled and the
  // healthy messages are still delivered.
  sim::Task<base::Result<std::vector<Msg>>> RecvBatch(os::Env env, uint32_t r, uint32_t max_n,
                                                      os::Deadline deadline = {});
  sim::Task<base::Result<Msg>> Recv(os::Env env, uint32_t r, os::Deadline deadline = {});

  // Revokes r's read grants, returns credit, and hands each slot back to the
  // pool once its last holder released it.
  sim::Task<base::Status> ReleaseBatch(os::Env env, uint32_t r, std::span<const Msg> msgs);
  sim::Task<base::Status> Release(os::Env env, uint32_t r, const Msg& msg) {
    return ReleaseBatch(env, r, std::span(&msg, 1));
  }

  // Re-loads `msg`'s read capability into kReceiverCapReg (a register move).
  void BindRecvCap(os::Thread& t, uint32_t r, const Msg& msg) const;

  // ---- Lifecycle ----

  // Orderly shutdown: receivers drain, then see kBrokenChannel.
  void Close();
  // Dead-peer teardown (fired via the core::Dipc death hook).
  void OnProcessDeath(os::Process& proc);
  // Splices `proc` into an excised endpoint of the gated side: fresh owner
  // key, cleared templates, a fresh descriptor FIFO for a receiver, a full
  // credit line and APL grants. Parked producers re-check their gates.
  base::Status Rebind(Side side, uint32_t i, os::Process& proc);

  // ---- Introspection ----

  const PlaneConfig& config() const { return cfg_; }
  base::ErrorCode broken() const { return broken_; }
  uint32_t tx_count() const { return static_cast<uint32_t>(tx_.size()); }
  uint32_t rx_count() const { return static_cast<uint32_t>(rx_.size()); }
  const Endpoint& tx(uint32_t p) const { return tx_[p]; }
  const Endpoint& rx(uint32_t r) const { return rx_[r]; }
  uint32_t live_count(Side side) const;
  uint32_t credit_line() const { return credit_line_; }
  uint64_t sends() const { return sends_; }
  uint64_t deliveries() const { return deliveries_; }
  uint64_t recvs() const { return recvs_; }
  // Full capability mints (once per (endpoint, slot) once warm).
  uint64_t cold_mints() const { return cold_mints_; }
  uint64_t blocked_on_credit() const { return blocked_on_credit_; }
  // Recorded in-flight grants whose epoch is still live — 0 after teardown
  // means every grant was unwound (test support).
  uint64_t LiveGrantCount() const;
  hw::VirtAddr buf_va(uint32_t index) const { return data_seg_.base + index * buf_stride_; }
  // Where receiver r's read capability for slot `index` is stored (test
  // support: a plain write there destroys the capability, §4.2).
  hw::VirtAddr CapSlotVa(uint32_t r, uint32_t index) const {
    return cap_seg_.base + (uint64_t{r} * cfg_.slots + index) * codoms::kCapMemBytes;
  }
  // Id under which metrics ("<chan|fanout|fanin>/<id>/...", per-endpoint
  // "rx/<r>/..." or "tx/<p>/...") and trace events are attributed.
  uint32_t obs_id() const { return obs_id_; }

 private:
  static constexpr uint32_t kNobody = ~uint32_t{0};

  // Per-slot ownership: the in-flight write grant, the producer incarnation
  // that holds (or sent) the slot, and the receivers still to release it.
  struct Slot {
    std::optional<codoms::Capability> wcap;
    uint32_t owner = kNobody;
    uint64_t owner_key = 0;
    uint32_t pending = 0;
    uint64_t tctx = 0;  // trace side-band: stamped at publish, read at Recv
  };

  Plane() = default;
  base::Status Open(core::Dipc& dipc, Gate gate, std::span<os::Process* const> tx,
                    std::span<os::Process* const> rx, const PlaneConfig& cfg);
  void RegisterMetrics();
  const TagTrio& tags() const { return *cfg_.tags; }
  std::unique_ptr<MpmcQueue> MakeDesc(uint32_t r);
  // Close/Fail every queue, in creation order.
  template <typename F>
  void ForEachQueue(F&& f);
  // The endpoints that carry credit lines (kNone has none).
  std::vector<Endpoint>& lines() { return gate_ == Gate::kAdmission ? tx_ : rx_; }
  const std::vector<Endpoint>& lines() const {
    return gate_ == Gate::kAdmission ? tx_ : rx_;
  }

  // Grants slot `index` with `rights` to producer (kWrite) or receiver
  // (kRead) `e`, inside the runtime domain: a full CapFromApl mint on first
  // use, an epoch rebind of the cached template afterwards. Accumulates the
  // capability cost only; callers charge the runtime entry once per batch.
  base::Result<codoms::Capability> GrantCap(os::Env env, uint32_t index, codoms::Perm rights,
                                            uint32_t e, sim::Duration* cost);
  // Waits (futex path) until credit line `line` holds `need` credits — or,
  // for `line` == lines().size(), every live line does. Returns kOk once
  // admitted, the error to surface otherwise (kTimedOut when a finite
  // deadline expires with the gate still closed).
  sim::Task<base::ErrorCode> AwaitCredit(os::Env env, uint32_t line, uint64_t need,
                                         os::Deadline deadline);
  bool GateClosed(uint32_t line, uint64_t need) const;
  void Charge(Endpoint& e, uint64_t n);
  void Refund(Endpoint& e, uint64_t n);
  // Revokes r's read grant over `index` (returning its delivery credit) and
  // recycles the slot once no holder is left. Teardown-safe (no env).
  void DropDelivery(uint32_t r, uint32_t index, std::vector<uint64_t>* freed);
  // Frees an unheld slot, refunding admission credit to the producer
  // incarnation that paid it.
  void Recycle(uint32_t index, std::vector<uint64_t>* freed);
  void Break();
  void Excise(Side side, uint32_t i);

  os::Kernel* kernel_ = nullptr;
  Gate gate_ = Gate::kNone;
  PlaneConfig cfg_;
  uint64_t buf_stride_ = 0;   // page-rounded buf_bytes
  uint32_t credit_line_ = 0;  // cfg_.credits resolved against cfg_.slots
  os::Process* home_ = nullptr;  // maps the segments: the endpoint whose death breaks
  Segment data_seg_;
  Segment cap_seg_;  // rx_count() * slots capability-storage slots
  std::unique_ptr<MpmcQueue> free_;
  // FIFOs swapped out by Rebind: threads parked in a failed queue may resume
  // after the swap, so the queue must outlive it.
  std::vector<std::unique_ptr<MpmcQueue>> retired_;
  std::vector<Endpoint> tx_;
  std::vector<Endpoint> rx_;
  std::vector<Slot> slots_;
  // Flat (endpoint x slot) tables: write templates per producer, read
  // templates and in-flight read grants per receiver.
  std::vector<std::optional<codoms::Capability>> wtmpl_;
  std::vector<std::optional<codoms::Capability>> rtmpl_;
  std::vector<std::optional<codoms::Capability>> rcaps_;
  os::Futex credit_;  // producers parked on a closed credit gate
  bool closed_ = false;
  base::ErrorCode broken_ = base::ErrorCode::kOk;
  uint32_t rr_next_ = 0;
  uint64_t sends_ = 0;
  uint64_t deliveries_ = 0;
  uint64_t recvs_ = 0;
  uint64_t cold_mints_ = 0;
  uint64_t blocked_on_credit_ = 0;
  // Registry handles; a shape registers only its own (the rest stay null).
  uint32_t obs_id_ = 0;
  obs::Counter* m_sends_ = nullptr;
  obs::Counter* m_recvs_ = nullptr;
  obs::Counter* m_deliveries_ = nullptr;
  obs::Counter* m_blocked_on_credit_ = nullptr;
  obs::Histogram* m_group_stall_ns_ = nullptr;
  obs::Counter* m_acquires_ = nullptr;
  obs::Counter* m_releases_ = nullptr;
  obs::Counter* m_cold_mints_ = nullptr;
  obs::Counter* m_rebinds_ = nullptr;
  obs::Counter* m_revokes_ = nullptr;
  obs::Histogram* m_send_batch_ = nullptr;
  obs::Histogram* m_recv_batch_ = nullptr;
};

}  // namespace dipc::chan

#endif  // DIPC_CHAN_PLANE_H_
