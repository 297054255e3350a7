#include "chan/plane.h"

#include <algorithm>

#include "chan/desc.h"
#include "fault/fault.h"
#include "obs/trace.h"

namespace dipc::chan {

using internal::ClearRegIfHolds;
using internal::DescIndex;
using internal::DescLen;
using internal::kLenMask;
using internal::kMaxSlots;
using internal::NextOwnerKey;
using internal::PackDesc;
using os::TimeCat;

namespace {

void Bump(obs::Counter* c, uint64_t n = 1) {
  if (c != nullptr) {
    c->Add(n);
  }
}

// Batches are small (<= slots, typically <= 64), so a pairwise check beats
// allocating an O(slots) table on every call (N=1 is the hot path).
template <typename T, typename Index>
bool Distinct(std::span<const T> xs, Index index) {
  for (size_t j = 0; j < xs.size(); ++j) {
    for (size_t i = 0; i < j; ++i) {
      if (index(xs[i]) == index(xs[j])) {
        return false;
      }
    }
  }
  return true;
}

// The rows a gated plane's metrics differ by: fan-out counts per receiver,
// fan-in per producer.
struct GatedRows {
  obs::Metric<obs::Counter, 1> sends, recvs, blocked_on_credit;
  obs::Metric<obs::Counter, 2> line_traffic;
  obs::Metric<obs::Gauge, 2> line_credits;
  obs::Metric<obs::Histogram, 2> line_stall_ns;
};
constexpr GatedRows kFanOutRows{
    obs::kFanOutSends, obs::kFanOutRecvs, obs::kFanOutBlockedOnCredit,
    obs::kFanOutRxDeliveries, obs::kFanOutRxCredits, obs::kFanOutRxCreditStallNs};
constexpr GatedRows kFanInRows{
    obs::kFanInSends, obs::kFanInRecvs, obs::kFanInBlockedOnCredit,
    obs::kFanInTxSends, obs::kFanInTxCredits, obs::kFanInTxCreditStallNs};

}  // namespace

base::Result<std::shared_ptr<Plane>> Plane::Create(core::Dipc& dipc, Gate gate,
                                                   std::span<os::Process* const> tx,
                                                   std::span<os::Process* const> rx,
                                                   const PlaneConfig& cfg) {
  std::shared_ptr<Plane> plane(new Plane());
  base::Status s = plane->Open(dipc, gate, tx, rx, cfg);
  if (!s.ok()) {
    return s.code();
  }
  std::weak_ptr<Plane> weak = plane;
  dipc.AddDeathHook([weak](os::Process& dead) {
    auto live = weak.lock();
    if (live == nullptr) {
      return false;  // plane gone: unregister the hook
    }
    live->OnProcessDeath(dead);
    return true;
  });
  return plane;
}

base::Status Plane::Open(core::Dipc& dipc, Gate gate, std::span<os::Process* const> tx,
                         std::span<os::Process* const> rx, const PlaneConfig& cfg) {
  if (cfg.slots == 0 || cfg.slots > kMaxSlots || cfg.buf_bytes == 0 ||
      cfg.buf_bytes > kLenMask || cfg.credits > cfg.slots || tx.empty() || rx.empty()) {
    return base::ErrorCode::kInvalidArgument;
  }
  for (auto side : {tx, rx}) {
    for (os::Process* p : side) {
      if (p == nullptr || !p->dipc_enabled()) {
        // The zero-copy path needs the shared page table of the global VAS.
        return base::ErrorCode::kNotSupported;
      }
    }
  }
  kernel_ = &dipc.kernel();
  gate_ = gate;
  cfg_ = cfg;
  credit_line_ = cfg.credits != 0 ? cfg.credits : cfg.slots;
  codoms::AplTable& apl = kernel_->codoms().apl_table();
  if (!cfg_.tags.has_value()) {
    cfg_.tags = TagTrio::Allocate(apl);
  }
  const TagTrio& trio = tags();
  // One-time APL setup (per-message paths never touch APLs, so APL-cache
  // entries stay warm): every endpoint may use the control segment and call
  // into the runtime; only the runtime domain reaches the data domain.
  for (auto side : {tx, rx}) {
    for (os::Process* p : side) {
      apl.Grant(p->default_domain(), trio.ctrl, codoms::Perm::kWrite);
      apl.Grant(p->default_domain(), trio.rt, codoms::Perm::kCall);
    }
  }
  apl.Grant(trio.rt, trio.data, codoms::Perm::kWrite);

  home_ = gate == Gate::kAdmission ? rx[0] : tx[0];
  buf_stride_ = hw::PageRoundUp(cfg.buf_bytes);
  auto data = MapSegment(*kernel_, *home_, buf_stride_ * cfg.slots, trio.data);
  if (!data.ok()) {
    return data.code();
  }
  data_seg_ = data.value();
  // One capability-storage slot per (receiver, buffer): each receiver loads
  // its *own* stored read capability, so revocations are per receiver.
  auto caps = MapSegment(*kernel_, *home_, uint64_t{rx.size()} * cfg.slots * codoms::kCapMemBytes,
                         trio.ctrl, /*cap_storage=*/true);
  if (!caps.ok()) {
    return caps.code();
  }
  cap_seg_ = caps.value();
  tx_.resize(tx.size());
  rx_.resize(rx.size());
  for (auto [eps, procs] : {std::pair{&tx_, tx}, std::pair{&rx_, rx}}) {
    for (size_t i = 0; i < procs.size(); ++i) {
      (*eps)[i].proc = procs[i];
      (*eps)[i].credits = credit_line_;
    }
  }
  RegisterMetrics();
  if (gate == Gate::kNone) {
    rx_[0].desc = MakeDesc(0);
  }
  const obs::QueueScopeRow<1> free_scope = gate == Gate::kDelivery    ? obs::kFanOutFreeQueue
                                           : gate == Gate::kAdmission ? obs::kFanInFreeQueue
                                                                      : obs::kChanFreeQueue;
  free_ = std::make_unique<MpmcQueue>(*kernel_, *home_, cfg.slots, trio.ctrl,
                                      obs::QueueScope(free_scope, obs_id_));
  for (uint32_t i = 0; i < cfg.slots; ++i) {
    free_->Prime(i);
  }
  for (uint32_t r = 0; gate != Gate::kNone && r < rx_.size(); ++r) {
    rx_[r].desc = MakeDesc(r);
  }
  for (auto* side : {&tx_, &rx_}) {
    for (Endpoint& e : *side) {
      e.key = NextOwnerKey();
    }
  }
  slots_.resize(cfg.slots);
  wtmpl_.resize(tx_.size() * cfg.slots);
  rtmpl_.resize(rx_.size() * cfg.slots);
  rcaps_.resize(rx_.size() * cfg.slots);
  return base::Status::Ok();
}

void Plane::RegisterMetrics() {
  obs_id_ = obs::NewObjectId();
  credit_ = os::Futex({obs_id_});
  const uint32_t id = obs_id_;
  obs::Registry& reg = obs::Registry::Default();
  if (gate_ == Gate::kNone) {
    m_sends_ = reg.Get(obs::kChanSends, id);
    m_recvs_ = reg.Get(obs::kChanRecvs, id);
    m_acquires_ = reg.Get(obs::kChanAcquires, id);
    m_releases_ = reg.Get(obs::kChanReleases, id);
    m_cold_mints_ = reg.Get(obs::kChanColdMints, id);
    m_rebinds_ = reg.Get(obs::kChanRebinds, id);
    m_revokes_ = reg.Get(obs::kChanRevokes, id);
    m_send_batch_ = reg.Get(obs::kChanSendBatch, id);
    m_recv_batch_ = reg.Get(obs::kChanRecvBatch, id);
    return;
  }
  const bool delivery = gate_ == Gate::kDelivery;
  const GatedRows& rows = delivery ? kFanOutRows : kFanInRows;
  m_sends_ = reg.Get(rows.sends, id);
  m_recvs_ = reg.Get(rows.recvs, id);
  m_blocked_on_credit_ = reg.Get(rows.blocked_on_credit, id);
  if (delivery) {
    m_deliveries_ = reg.Get(obs::kFanOutDeliveries, id);
    m_group_stall_ns_ = reg.Get(obs::kFanOutCreditStallNs, id);
  }
  for (uint32_t i = 0; i < lines().size(); ++i) {
    Endpoint& e = lines()[i];
    e.m_traffic = reg.Get(rows.line_traffic, id, i);
    e.m_credits = reg.Get(rows.line_credits, id, i);
    e.m_stall_ns = reg.Get(rows.line_stall_ns, id, i);
    e.m_credits->Set(credit_line_);
  }
}

std::unique_ptr<MpmcQueue> Plane::MakeDesc(uint32_t r) {
  // Fan-out deliveries are credit-bounded per receiver; otherwise every
  // in-flight slot comes out of the pool. Either way a publish never waits
  // for FIFO room.
  const bool delivery = gate_ == Gate::kDelivery;
  const obs::QueueScope scope =
      delivery ? obs::QueueScope(obs::kFanOutRxDescQueue, obs_id_, r)
               : obs::QueueScope(
                     gate_ == Gate::kAdmission ? obs::kFanInDescQueue : obs::kChanDescQueue,
                     obs_id_);
  return std::make_unique<MpmcQueue>(*kernel_, *home_, delivery ? credit_line_ : cfg_.slots,
                                     tags().ctrl, scope);
}

template <typename F>
void Plane::ForEachQueue(F&& f) {
  if (gate_ != Gate::kNone) {
    f(*free_);
  }
  for (Endpoint& e : rx_) {
    f(*e.desc);
  }
  if (gate_ == Gate::kNone) {
    f(*free_);
  }
}

uint32_t Plane::live_count(Side side) const {
  const auto& eps = side == Side::kTx ? tx_ : rx_;
  return static_cast<uint32_t>(
      std::count_if(eps.begin(), eps.end(), [](const Endpoint& e) { return e.alive; }));
}

base::Result<codoms::Capability> Plane::GrantCap(os::Env env, uint32_t index,
                                                 codoms::Perm rights, uint32_t e,
                                                 sim::Duration* cost) {
  const bool write = rights == codoms::Perm::kWrite;
  std::optional<codoms::Capability>& tmpl =
      (write ? wtmpl_ : rtmpl_)[uint64_t{e} * cfg_.slots + index];
  codoms::ThreadCapContext& ctx = env.self->cap_ctx();
  hw::DomainTag saved = ctx.current_domain;
  ctx.current_domain = tags().rt;
  sim::Duration c;
  base::Result<codoms::Capability> cap = base::ErrorCode::kFault;
  obs::TraceRing& tr = obs::Trace();
  if (tmpl.has_value()) {
    // Warm path: re-snapshot the cached capability against its counter — no
    // mint, no APL traversal (§4.2 revocation counters as an ownership
    // rotation mechanism).
    cap = env.kernel->codoms().CapRebind(*tmpl, ctx, &c);
    Bump(m_rebinds_);
    c += tr.event_cost();
    tr.Record(env.self->last_cpu(), obs::EventType::kCapRebind, obs_id_, index,
              env.kernel->now());
  } else {
    // Cold path, once per (endpoint, slot): full mint through the runtime's
    // APL grant over the data domain, tagged with the endpoint's owner key.
    ++cold_mints_;
    Bump(m_cold_mints_);
    c += tr.event_cost();
    tr.Record(env.self->last_cpu(), obs::EventType::kCapMint, obs_id_, index,
              env.kernel->now());
    cap = env.kernel->codoms().CapFromApl(env.self->last_cpu(),
                                          env.self->process().page_table(), ctx, buf_va(index),
                                          buf_stride_, rights, codoms::CapType::kAsync, &c);
    if (cap.ok()) {
      env.kernel->codoms().revocations().SetOwner(cap.value().revocation_id,
                                                  (write ? tx_ : rx_)[e].key);
    }
  }
  ctx.current_domain = saved;
  *cost += c;
  if (cap.ok()) {
    tmpl = cap.value();
  }
  return cap;
}

bool Plane::GateClosed(uint32_t line, uint64_t need) const {
  const std::vector<Endpoint>& ls = lines();
  if (line < ls.size()) {
    return ls[line].alive && ls[line].credits < need;
  }
  return std::any_of(ls.begin(), ls.end(),
                     [need](const Endpoint& e) { return e.alive && e.credits < need; });
}

sim::Task<base::ErrorCode> Plane::AwaitCredit(os::Env env, uint32_t line, uint64_t need,
                                              os::Deadline deadline) {
  const std::vector<Endpoint>& ls = lines();
  const uint64_t gen = line < ls.size() ? ls[line].key : 0;
  // Why the caller may not (or no longer needs to) wait.
  auto refused = [&]() -> base::ErrorCode {
    if (broken_ != base::ErrorCode::kOk) {
      return broken_;
    }
    if (closed_) {
      return base::ErrorCode::kBrokenChannel;
    }
    const bool gone = line < ls.size() ? !ls[line].alive || ls[line].key != gen
                                       : std::none_of(ls.begin(), ls.end(),
                                                      [](const Endpoint& e) { return e.alive; });
    return gone ? base::ErrorCode::kCalleeFailed : base::ErrorCode::kOk;
  };
  auto blocked = [&] { return refused() == base::ErrorCode::kOk && GateClosed(line, need); };
  sim::Time stall_start;
  bool stalled = false;
  while (true) {
    if (base::ErrorCode e = refused(); e != base::ErrorCode::kOk) {
      co_return e;
    }
    if (!GateClosed(line, need)) {
      // No suspension between this check and the caller's (synchronous)
      // use of the credits. Every release issues one wake, so every
      // gate-opening event re-checks one waiter.
      if (stalled) {
        sim::Duration stall = env.kernel->now() - stall_start;
        (line < ls.size() ? ls[line].m_stall_ns : m_group_stall_ns_)->Record(stall.nanos());
        obs::Trace().Record(env.self->last_cpu(), obs::EventType::kCreditStall, obs_id_, line,
                            env.kernel->now(), stall);
      }
      co_return base::ErrorCode::kOk;
    }
    if (!stalled) {
      stalled = true;
      stall_start = env.kernel->now();
    }
    ++blocked_on_credit_;
    m_blocked_on_credit_->Add();
    const os::Futex::Woke woke = co_await credit_.Park(env, deadline, blocked);
    if (woke == os::Futex::Woke::kTimedOut && blocked()) {
      // The deadline fired with the gate still closed; nothing was admitted
      // or granted, so the caller surfaces kTimedOut leak-free.
      obs::Trace().Record(env.self->last_cpu(), obs::EventType::kTimeout, obs_id_, need,
                          env.kernel->now());
      co_return base::ErrorCode::kTimedOut;
    }
  }
}

void Plane::Charge(Endpoint& e, uint64_t n) {
  e.credits -= n;
  e.m_credits->Set(static_cast<int64_t>(e.credits));
}

void Plane::Refund(Endpoint& e, uint64_t n) {
  e.credits += n;
  DIPC_CHECK(e.credits <= credit_line_);
  e.m_credits->Set(static_cast<int64_t>(e.credits));
}

sim::Task<base::Result<SendBuf>> Plane::AcquireBuf(os::Env env, uint32_t p,
                                                   os::Deadline deadline) {
  auto batch = co_await AcquireBufBatch(env, p, 1, deadline);
  if (!batch.ok()) {
    co_return batch.code();
  }
  co_return batch.value()[0];
}

sim::Task<base::Result<std::vector<SendBuf>>> Plane::AcquireBufBatch(os::Env env, uint32_t p,
                                                                     uint32_t max_n,
                                                                     os::Deadline deadline) {
  os::Kernel& k = *env.kernel;
  if (max_n == 0 || p >= tx_.size()) {
    co_return base::ErrorCode::kInvalidArgument;
  }
  if (broken_ != base::ErrorCode::kOk) {
    co_return broken_;
  }
  Endpoint& self = tx_[p];
  if (!self.alive) {
    co_return base::ErrorCode::kCalleeFailed;
  }
  const uint64_t gen = self.key;
  auto current = [&] { return self.alive && self.key == gen; };
  const bool admission = gate_ == Gate::kAdmission;
  if (gate_ != Gate::kNone) {
    // Don't even take a buffer while the gate is shut: this is where
    // backpressure reaches the producer (the slowest live receiver's credit
    // for fan-out, this producer's own line for fan-in).
    base::ErrorCode gate =
        co_await AwaitCredit(env, admission ? p : rx_count(), 1, deadline);
    if (gate != base::ErrorCode::kOk) {
      co_return gate;
    }
  }
  uint32_t want = std::min<uint32_t>(max_n, cfg_.slots);
  if (admission) {
    // Reserve before the (possibly blocking) pool pop, so a sibling thread
    // of the same producer cannot overshoot the line across our suspension.
    want = static_cast<uint32_t>(std::min<uint64_t>(want, self.credits));
    Charge(self, want);
  }
  std::vector<uint64_t> indices(want);
  auto popped = co_await free_->PopN(env, std::span(indices), deadline);
  if (!popped.ok() || !current()) {
    if (admission && current()) {
      Refund(self, want);
    } else if (popped.ok()) {
      // Excised (or rebound) while parked in the pool: the popped slots go
      // back; the reservation died with the incarnation.
      (void)co_await free_->PushN(env, std::span(indices.data(), popped.value()));
    }
    if (!popped.ok()) {
      co_return broken_ != base::ErrorCode::kOk ? broken_ : popped.code();
    }
    co_return base::ErrorCode::kCalleeFailed;
  }
  indices.resize(popped.value());
  if (admission) {
    Refund(self, want - indices.size());
  }
  // One cross-domain call into the runtime covers the whole batch.
  sim::Duration cost = k.costs().function_call + k.costs().domain_switch * 2;
  std::vector<codoms::Capability> caps;
  caps.reserve(indices.size());
  for (uint64_t idx : indices) {
    auto cap = GrantCap(env, static_cast<uint32_t>(idx), codoms::Perm::kWrite, p, &cost);
    if (!cap.ok()) {
      // Undo: revoke what was granted and return every slot to the pool.
      for (const auto& granted : caps) {
        DIPC_CHECK(k.codoms().CapRevoke(granted).ok());
      }
      (void)co_await free_->PushN(env, std::span(indices));
      if (admission) {
        Refund(self, indices.size());
      }
      co_return cap.code();
    }
    caps.push_back(cap.value());
  }
  Bump(m_acquires_, indices.size());
  cost += obs::Trace().event_cost();
  obs::Trace().Record(env.self->last_cpu(), obs::EventType::kAcquireBatch, obs_id_,
                      indices.size(), k.now());
  co_await k.Spend(*env.self, cost, TimeCat::kUser);
  if (broken_ != base::ErrorCode::kOk || !current()) {
    // A death during the Spend swept what was recorded; these grants were
    // not recorded yet, so revoke them ourselves (and, for an excised
    // producer, hand the slots back).
    for (const auto& granted : caps) {
      (void)k.codoms().CapRevoke(granted);
    }
    if (broken_ != base::ErrorCode::kOk) {
      co_return broken_;
    }
    (void)co_await free_->PushN(env, std::span(indices));
    co_return base::ErrorCode::kCalleeFailed;
  }
  std::vector<SendBuf> out;
  out.reserve(indices.size());
  for (size_t j = 0; j < indices.size(); ++j) {
    auto index = static_cast<uint32_t>(indices[j]);
    slots_[index].wcap = caps[j];
    slots_[index].owner = p;
    slots_[index].owner_key = gen;
    out.push_back(SendBuf{buf_va(index), cfg_.buf_bytes, index});
  }
  env.self->cap_ctx().regs.Set(kSenderCapReg, caps.back());
  co_return out;
}

void Plane::BindSendCap(os::Thread& t, const SendBuf& buf) const {
  if (buf.index < cfg_.slots && slots_[buf.index].wcap.has_value()) {
    t.cap_ctx().regs.Set(kSenderCapReg, *slots_[buf.index].wcap);
  }
}

void Plane::BindRecvCap(os::Thread& t, uint32_t r, const Msg& msg) const {
  if (r < rx_.size() && msg.index < cfg_.slots) {
    const auto& cap = rcaps_[uint64_t{r} * cfg_.slots + msg.index];
    if (cap.has_value()) {
      t.cap_ctx().regs.Set(kReceiverCapReg, *cap);
    }
  }
}

sim::Task<base::Status> Plane::Send(os::Env env, uint32_t p, const SendBuf& buf, uint64_t len,
                                    uint32_t target, os::Deadline deadline) {
  SendItem item{buf, len};
  co_return co_await SendBatch(env, p, std::span(&item, 1), target, deadline);
}

sim::Task<base::Status> Plane::SendBatch(os::Env env, uint32_t p,
                                         std::span<const SendItem> items, uint32_t target,
                                         os::Deadline deadline) {
  os::Kernel& k = *env.kernel;
  const hw::CostModel& cm = k.costs();
  const uint32_t n_rx = rx_count();
  if (items.empty() || p >= tx_.size() || target > n_rx) {
    co_return base::ErrorCode::kInvalidArgument;
  }
  sim::Duration fault_delay;
  {
    // Probed before the broken_ check so a scripted "kill at the Nth send"
    // surfaces through the regular dead-peer path on this very call.
    fault::Decision d = DIPC_FAULT_POINT(kChanSend, env.self->last_cpu());
    if (d.fail()) {
      co_return base::ErrorCode::kFault;
    }
    if (d.action == fault::Action::kDelay) {
      fault_delay = d.delay;
    }
  }
  if (items.size() > credit_line_) {
    // A batch no credit line can ever admit would wait forever.
    co_return base::ErrorCode::kInvalidArgument;
  }
  if (broken_ != base::ErrorCode::kOk) {
    co_return broken_;
  }
  if (closed_) {
    co_return base::ErrorCode::kBrokenChannel;
  }
  Endpoint& self = tx_[p];
  if (!self.alive) {
    co_return base::ErrorCode::kCalleeFailed;
  }
  const uint64_t gen = self.key;
  for (const SendItem& it : items) {
    const uint32_t index = it.buf.index;
    if (index >= cfg_.slots || it.len == 0 || it.len > cfg_.buf_bytes ||
        !slots_[index].wcap.has_value() || slots_[index].owner != p ||
        slots_[index].owner_key != gen) {
      co_return base::ErrorCode::kInvalidArgument;
    }
  }
  if (!Distinct(items, [](const SendItem& it) { return it.buf.index; })) {
    co_return base::ErrorCode::kInvalidArgument;
  }
  if (gate_ == Gate::kDelivery) {
    // A sharded message is never dropped: a sharded send waits for the whole
    // batch's worth of its target's credit, broadcast for every live
    // receiver's.
    base::ErrorCode gate = co_await AwaitCredit(env, target, items.size(), deadline);
    if (gate != base::ErrorCode::kOk) {
      co_return gate;
    }
  }
  // Plan (no suspension): grant and store each destination's read-only view
  // (immutability: a published message can never be modified again) and
  // record it, so a death during the Spend below sweeps an accurate picture.
  // An error here leaves the producer owning every buffer.
  sim::Duration cost = cm.chan_fast_path + cm.function_call + cm.domain_switch * 2 + fault_delay;
  for (size_t j = 0; j < items.size(); ++j) {
    const uint32_t index = items[j].buf.index;
    for (uint32_t r = 0; r < n_rx; ++r) {
      if (!rx_[r].alive || (target < n_rx && r != target)) {
        continue;
      }
      auto rcap = GrantCap(env, index, codoms::Perm::kRead, r, &cost);
      base::Status stored = base::ErrorCode::kFault;
      if (rcap.ok()) {
        sim::Duration store_cost;
        stored = k.codoms().CapStore(env.self->process().page_table(), env.self->cap_ctx(),
                                     CapSlotVa(r, index), rcap.value(), &store_cost);
        cost += store_cost;
      }
      if (!rcap.ok() || !stored.ok()) {
        if (rcap.ok()) {
          DIPC_CHECK(k.codoms().CapRevoke(rcap.value()).ok());
        }
        std::vector<uint64_t> none;  // the producer still holds every slot
        for (size_t jj = 0; jj <= j; ++jj) {
          for (uint32_t rr = 0; rr < n_rx; ++rr) {
            DropDelivery(rr, items[jj].buf.index, &none);
          }
        }
        co_return rcap.ok() ? stored : base::Status(rcap.code());
      }
      rcaps_[uint64_t{r} * cfg_.slots + index] = rcap.value();
      ++slots_[index].pending;
      if (gate_ == Gate::kDelivery) {
        Charge(rx_[r], 1);
      }
    }
  }
  cost += cm.cap_revoke * items.size();
  cost += obs::Trace().event_cost();
  obs::Trace().Record(env.self->last_cpu(), obs::EventType::kSendBatch, obs_id_, items.size(),
                      k.now());
  co_await k.Spend(*env.self, cost, TimeCat::kUser);
  if (broken_ != base::ErrorCode::kOk) {
    co_return broken_;  // teardown swept every recorded grant
  }
  if (!self.alive || self.key != gen) {
    co_return base::ErrorCode::kCalleeFailed;  // excised: swept and recycled
  }
  const bool any_deliverable = std::any_of(items.begin(), items.end(), [&](const SendItem& it) {
    return slots_[it.buf.index].pending > 0;
  });
  if (!any_deliverable && (live_count(Side::kRx) == 0 || target < n_rx)) {
    // Every planned destination died during the Spend: the send failed with
    // the producer still owning every buffer, so it can re-shard or abandon.
    co_return base::ErrorCode::kCalleeFailed;
  }
  // Move semantics: the producer's ownership ends *after* the Spend (so a
  // death sweep sees who holds what) but *before* any descriptor is
  // published: no receiver can observe a buffer its writer still owns.
  std::vector<uint64_t> freed;
  for (const SendItem& it : items) {
    Slot& s = slots_[it.buf.index];
    s.tctx = it.buf.tctx;
    ClearRegIfHolds(*env.self, kSenderCapReg, *s.wcap);
    DIPC_CHECK(k.codoms().CapRevoke(*s.wcap).ok());
    s.wcap.reset();
    if (s.pending == 0) {
      // Every destination of this item died mid-Spend while a sibling item
      // still delivers (broadcast at-most-once): nobody holds the slot.
      Recycle(it.buf.index, &freed);
    }
  }
  Bump(m_revokes_, items.size());
  if (!freed.empty()) {
    (void)co_await free_->PushN(env, std::span(freed));
    freed.clear();
    if (broken_ != base::ErrorCode::kOk) {
      co_return broken_;
    }
  }
  // Publish: one batched descriptor push (and at most one futex wake) per
  // receiver touched. Credits and the pool bound every FIFO, so no push
  // waits for room.
  uint64_t delivered = 0;
  uint64_t landed = 0;  // items whose descriptor reached some receiver
  base::ErrorCode failed = base::ErrorCode::kOk;
  for (uint32_t r = 0; r < n_rx; ++r) {
    std::vector<uint64_t> descs;
    for (const SendItem& it : items) {
      if (rcaps_[uint64_t{r} * cfg_.slots + it.buf.index].has_value()) {
        descs.push_back(PackDesc(it.buf.index, it.len));
      }
    }
    if (descs.empty()) {
      continue;
    }
    uint64_t published = 0;
    auto pushed = co_await rx_[r].desc->PushN(env, std::span(descs), &published, deadline);
    delivered += published;
    landed = std::max(landed, published);
    if (gate_ == Gate::kDelivery) {
      rx_[r].m_traffic->Add(published);
    }
    if (!pushed.ok()) {
      // Close (or this receiver's death) raced the publish. The unpublished
      // descriptors never reach anyone: revoke their read grants and recycle
      // the slots here, or they stay live forever (a death sweep already did
      // this for its own receiver; DropDelivery is idempotent).
      for (size_t j = published; j < descs.size(); ++j) {
        DropDelivery(r, DescIndex(descs[j]), &freed);
      }
      failed = pushed.code();
    }
  }
  if (!freed.empty()) {
    (void)co_await free_->PushN(env, std::span(freed));  // fails harmlessly after Close
  }
  if (broken_ != base::ErrorCode::kOk) {
    co_return broken_;
  }
  const uint64_t sent = failed == base::ErrorCode::kOk ? items.size() : landed;
  sends_ += sent;
  deliveries_ += delivered;
  Bump(m_sends_, sent);
  Bump(m_deliveries_, delivered);
  if (gate_ == Gate::kAdmission) {
    self.m_traffic->Add(sent);
  }
  if (m_send_batch_ != nullptr) {
    m_send_batch_->Record(static_cast<double>(sent));
  }
  if (failed != base::ErrorCode::kOk && closed_) {
    co_return base::ErrorCode::kBrokenChannel;
  }
  if (delivered == 0 && (live_count(Side::kRx) == 0 || target < n_rx)) {
    co_return base::ErrorCode::kCalleeFailed;  // the caller reshards
  }
  co_return base::Status::Ok();
}

sim::Task<base::Status> Plane::AbandonBatch(os::Env env, uint32_t p,
                                            std::span<const SendBuf> bufs) {
  os::Kernel& k = *env.kernel;
  const hw::CostModel& cm = k.costs();
  if (bufs.empty() || p >= tx_.size()) {
    co_return base::ErrorCode::kInvalidArgument;
  }
  const uint64_t gen = tx_[p].key;
  for (const SendBuf& b : bufs) {
    if (b.index >= cfg_.slots || !slots_[b.index].wcap.has_value() || slots_[b.index].owner != p ||
        slots_[b.index].owner_key != gen) {
      co_return broken_ != base::ErrorCode::kOk ? broken_ : base::ErrorCode::kInvalidArgument;
    }
  }
  if (!Distinct(bufs, [](const SendBuf& b) { return b.index; })) {
    co_return base::ErrorCode::kInvalidArgument;
  }
  sim::Duration cost = cm.chan_fast_path;
  for (const SendBuf& b : bufs) {
    Slot& s = slots_[b.index];
    ClearRegIfHolds(*env.self, kSenderCapReg, *s.wcap);
    DIPC_CHECK(k.codoms().CapRevoke(*s.wcap).ok());
    cost += cm.cap_revoke;
    s.wcap.reset();
  }
  Bump(m_revokes_, bufs.size());
  co_await k.Spend(*env.self, cost, TimeCat::kUser);
  if (broken_ != base::ErrorCode::kOk) {
    co_return broken_;  // dead-peer teardown already retired the pool
  }
  std::vector<uint64_t> freed;
  for (const SendBuf& b : bufs) {
    Recycle(b.index, &freed);
  }
  auto pushed = co_await free_->PushN(env, std::span(freed));
  if (!pushed.ok()) {
    // After an orderly Close the pool is retired; the revocations above are
    // all that matters. Only dead-peer errors surface.
    co_return broken_ != base::ErrorCode::kOk ? base::Status(broken_) : base::Status::Ok();
  }
  if (gate_ == Gate::kAdmission) {
    co_await credit_.Wake(env);
  }
  co_return base::Status::Ok();
}

uint32_t Plane::NextShard() {
  for (uint32_t i = 0; i < rx_count(); ++i) {
    uint32_t r = (rr_next_ + i) % rx_count();
    if (rx_[r].alive) {
      rr_next_ = (r + 1) % rx_count();
      return r;
    }
  }
  return rx_count();
}

sim::Task<base::Result<Msg>> Plane::Recv(os::Env env, uint32_t r, os::Deadline deadline) {
  auto batch = co_await RecvBatch(env, r, 1, deadline);
  if (!batch.ok()) {
    co_return batch.code();
  }
  co_return batch.value()[0];
}

sim::Task<base::Result<std::vector<Msg>>> Plane::RecvBatch(os::Env env, uint32_t r,
                                                           uint32_t max_n,
                                                           os::Deadline deadline) {
  os::Kernel& k = *env.kernel;
  if (max_n == 0 || r >= rx_.size()) {
    co_return base::ErrorCode::kInvalidArgument;
  }
  if (broken_ != base::ErrorCode::kOk) {
    co_return broken_;
  }
  std::vector<uint64_t> descs(std::min<uint32_t>(max_n, cfg_.slots));
  auto popped = co_await rx_[r].desc->PopN(env, std::span(descs), deadline);
  if (!popped.ok()) {
    co_return broken_ != base::ErrorCode::kOk ? broken_ : popped.code();
  }
  descs.resize(popped.value());
  // One accounting charge covers every capability load of the batch.
  sim::Duration cost;
  std::vector<Msg> out;
  std::vector<codoms::Capability> caps;
  std::vector<uint32_t> corrupted;  // slots whose stored capability is gone
  out.reserve(descs.size());
  caps.reserve(descs.size());
  for (uint64_t desc : descs) {
    uint32_t index = DescIndex(desc);
    sim::Duration load_cost;
    auto cap = k.codoms().CapLoad(env.self->process().page_table(), env.self->cap_ctx(),
                                  CapSlotVa(r, index), &load_cost);
    cost += load_cost;
    if (!cap.ok()) {
      // A plain write destroyed the stored capability (unforgeability,
      // §4.2). Dropping the whole batch would forfeit the healthy messages
      // and leak every popped slot; the corrupted one is recycled below.
      corrupted.push_back(index);
      continue;
    }
    caps.push_back(cap.value());
    out.push_back(Msg{buf_va(index), DescLen(desc), index, slots_[index].tctx});
  }
  cost += obs::Trace().event_cost();
  obs::Trace().Record(env.self->last_cpu(), obs::EventType::kRecvBatch, obs_id_, out.size(),
                      k.now());
  co_await k.Spend(*env.self, cost, TimeCat::kUser);
  if (broken_ != base::ErrorCode::kOk) {
    // Teardown already revoked the loaded capabilities; handing dead grants
    // to the consumer would make its reads fault instead of surfacing the
    // crash.
    co_return broken_;
  }
  if (!corrupted.empty()) {
    // Nobody can ever load these grants again: revoke, refund, recycle.
    std::vector<uint64_t> freed;
    for (uint32_t index : corrupted) {
      DropDelivery(r, index, &freed);
    }
    if (!freed.empty()) {
      (void)co_await free_->PushN(env, std::span(freed));
      if (broken_ != base::ErrorCode::kOk) {
        co_return broken_;
      }
    }
    co_await credit_.Wake(env);
  }
  if (out.empty()) {
    co_return base::ErrorCode::kFault;  // every descriptor was corrupted
  }
  env.self->cap_ctx().regs.Set(kReceiverCapReg, caps.front());
  recvs_ += out.size();
  Bump(m_recvs_, out.size());
  if (m_recv_batch_ != nullptr) {
    m_recv_batch_->Record(static_cast<double>(out.size()));
  }
  co_return out;
}

sim::Task<base::Status> Plane::ReleaseBatch(os::Env env, uint32_t r,
                                            std::span<const Msg> msgs) {
  os::Kernel& k = *env.kernel;
  const hw::CostModel& cm = k.costs();
  if (msgs.empty() || r >= rx_.size()) {
    co_return base::ErrorCode::kInvalidArgument;
  }
  for (const Msg& msg : msgs) {
    if (msg.index >= cfg_.slots) {
      co_return base::ErrorCode::kInvalidArgument;
    }
  }
  if (!Distinct(msgs, [](const Msg& m) { return m.index; })) {
    co_return base::ErrorCode::kInvalidArgument;
  }
  if (broken_ != base::ErrorCode::kOk) {
    // Teardown already revoked the in-flight capabilities; a crash must
    // surface as the broken code, not as a caller bug.
    co_return broken_;
  }
  if (!rx_[r].alive) {
    co_return base::ErrorCode::kCalleeFailed;  // this receiver was excised
  }
  for (const Msg& msg : msgs) {
    if (!rcaps_[uint64_t{r} * cfg_.slots + msg.index].has_value()) {
      co_return base::ErrorCode::kInvalidArgument;
    }
  }
  sim::Duration cost = cm.chan_fast_path;
  std::vector<uint64_t> freed;
  for (const Msg& msg : msgs) {
    ClearRegIfHolds(*env.self, kReceiverCapReg, *rcaps_[uint64_t{r} * cfg_.slots + msg.index]);
    DropDelivery(r, msg.index, &freed);
    cost += cm.cap_revoke;
  }
  Bump(m_releases_, msgs.size());
  Bump(m_revokes_, msgs.size());
  cost += obs::Trace().event_cost();
  obs::Trace().Record(env.self->last_cpu(),
                      gate_ == Gate::kNone ? obs::EventType::kReleaseBatch
                                           : obs::EventType::kCreditGrant,
                      obs_id_, msgs.size(), k.now());
  co_await k.Spend(*env.self, cost, TimeCat::kUser);
  if (broken_ != base::ErrorCode::kOk) {
    co_return broken_;
  }
  if (!freed.empty()) {
    auto pushed = co_await free_->PushN(env, std::span(freed));
    if (!pushed.ok() && broken_ != base::ErrorCode::kOk) {
      co_return broken_;
    }
  }
  // Returned credit may unblock a parked producer (wake-suppressed).
  if (credit_.waiters() > 0) {
    fault::Decision d = gate_ == Gate::kDelivery
                            ? DIPC_FAULT_POINT(kCreditGrant, env.self->last_cpu())
                            : DIPC_FAULT_POINT(kFanInCreditGrant, env.self->last_cpu());
    if (d.drop_wake()) {
      // Injected lost credit wake: the credits are back but no parked
      // producer hears it — deadline-armed waiters recover, never-deadline
      // waiters rely on the next release.
      co_return base::Status::Ok();
    }
    if (d.action == fault::Action::kDelay) {
      co_await k.Spend(*env.self, d.delay, TimeCat::kUser);
    }
    co_await credit_.Wake(env);
  }
  co_return base::Status::Ok();
}

void Plane::DropDelivery(uint32_t r, uint32_t index, std::vector<uint64_t>* freed) {
  std::optional<codoms::Capability>& cap = rcaps_[uint64_t{r} * cfg_.slots + index];
  if (!cap.has_value()) {
    return;
  }
  DIPC_CHECK(kernel_->codoms().CapRevoke(*cap).ok());
  cap.reset();
  if (gate_ == Gate::kDelivery && rx_[r].alive) {
    Refund(rx_[r], 1);
  }
  Slot& s = slots_[index];
  DIPC_CHECK(s.pending > 0);
  // A held write grant means the producer is mid-send: the slot is still
  // its own and must NOT return to the pool.
  if (--s.pending == 0 && !s.wcap.has_value()) {
    Recycle(index, freed);
  }
}

void Plane::Recycle(uint32_t index, std::vector<uint64_t>* freed) {
  Slot& s = slots_[index];
  if (gate_ == Gate::kAdmission && s.owner != kNobody && tx_[s.owner].alive &&
      tx_[s.owner].key == s.owner_key) {
    // Admission credit returns to the producer that paid it — unless that
    // incarnation died (or was rebound, which restored a full line).
    Refund(tx_[s.owner], 1);
  }
  s.owner = kNobody;
  freed->push_back(index);
}

void Plane::Close() {
  closed_ = true;
  ForEachQueue([](MpmcQueue& q) { q.Close(base::ErrorCode::kBrokenChannel); });
  credit_.WakeAll(*kernel_);
}

uint64_t Plane::LiveGrantCount() const {
  const codoms::RevocationTable& rt = kernel_->codoms().revocations();
  auto live = [&rt](const std::optional<codoms::Capability>& cap) {
    return cap.has_value() && rt.Epoch(cap->revocation_id) == cap->revocation_epoch;
  };
  auto n = static_cast<uint64_t>(std::count_if(rcaps_.begin(), rcaps_.end(), live));
  for (const Slot& s : slots_) {
    n += live(s.wcap) ? 1 : 0;
  }
  return n;
}

void Plane::OnProcessDeath(os::Process& proc) {
  if (broken_ != base::ErrorCode::kOk) {
    return;
  }
  // The ungated side's endpoints (both sides of a Channel) are fatal.
  auto holds = [&proc](const std::vector<Endpoint>& side) {
    return std::any_of(side.begin(), side.end(),
                       [&proc](const Endpoint& e) { return e.proc == &proc; });
  };
  if ((gate_ != Gate::kAdmission && holds(tx_)) || (gate_ != Gate::kDelivery && holds(rx_))) {
    Break();
    return;
  }
  const Side side = gate_ == Gate::kAdmission ? Side::kTx : Side::kRx;
  bool any = false;
  for (uint32_t i = 0; i < lines().size(); ++i) {
    if (lines()[i].proc == &proc && lines()[i].alive) {
      any = true;
      Excise(side, i);
    }
  }
  if (any) {
    // A dead laggard no longer gates the producer, and threads of a dead
    // incarnation must wake to see kCalleeFailed.
    credit_.WakeAll(*kernel_);
  }
}

void Plane::Break() {
  // KCS-style unwind: revoke every in-flight ownership capability and every
  // counter of every endpoint (which also catches grants a suspended call
  // minted but had not recorded yet), then fail every queue so blocked
  // threads wake with the crash code.
  broken_ = base::ErrorCode::kCalleeFailed;
  uint64_t revoked = 0;
  auto revoke = [&](std::optional<codoms::Capability>& cap) {
    if (cap.has_value()) {
      DIPC_CHECK(kernel_->codoms().CapRevoke(*cap).ok());
      cap.reset();
      ++revoked;
    }
  };
  for (Slot& s : slots_) {
    revoke(s.wcap);
  }
  for (auto& cap : rcaps_) {
    revoke(cap);
  }
  for (auto* side : {&tx_, &rx_}) {
    for (const Endpoint& e : *side) {
      kernel_->codoms().revocations().RevokeAllForOwner(e.key);
    }
  }
  Bump(m_revokes_, revoked);
  obs::Trace().Record(0, obs::EventType::kCapRevoke, obs_id_, revoked, kernel_->now());
  ForEachQueue([](MpmcQueue& q) { q.Fail(base::ErrorCode::kCalleeFailed); });
  credit_.WakeAll(*kernel_);
}

void Plane::Excise(Side side, uint32_t i) {
  // Excise one endpoint: its grants are revoked (one counter bump each,
  // then its whole counter set via the owner key), slots only it held are
  // recycled, and a receiver's FIFO fails so its blocked threads wake with
  // the crash code. Everybody else's grants, credits and FIFOs are
  // untouched — the group keeps flowing.
  Endpoint& e = (side == Side::kTx ? tx_ : rx_)[i];
  e.alive = false;
  std::vector<uint64_t> freed;
  for (uint32_t index = 0; index < cfg_.slots; ++index) {
    if (side == Side::kRx) {
      DropDelivery(i, index, &freed);
      continue;
    }
    Slot& s = slots_[index];
    if (s.owner != i || s.owner_key != e.key || !s.wcap.has_value()) {
      continue;
    }
    // Acquired (or mid-send) and never published. A published message
    // stays deliverable: its payload is immutable and consumer-owned.
    for (uint32_t r = 0; r < rx_count(); ++r) {
      DropDelivery(r, index, &freed);
    }
    DIPC_CHECK(kernel_->codoms().CapRevoke(*s.wcap).ok());
    s.wcap.reset();
    Recycle(index, &freed);
  }
  kernel_->codoms().revocations().RevokeAllForOwner(e.key);
  if (e.desc != nullptr) {
    e.desc->Fail(base::ErrorCode::kCalleeFailed);
  }
  for (uint64_t index : freed) {
    free_->PushNoEnv(index);
  }
}

base::Status Plane::Rebind(Side side, uint32_t i, os::Process& proc) {
  const bool gated = gate_ != Gate::kNone &&
                     (side == Side::kTx) == (gate_ == Gate::kAdmission);
  std::vector<Endpoint>& eps = side == Side::kTx ? tx_ : rx_;
  if (!gated || i >= eps.size() || !proc.dipc_enabled()) {
    return base::ErrorCode::kInvalidArgument;
  }
  if (broken_ != base::ErrorCode::kOk) {
    return broken_;
  }
  if (closed_) {
    return base::ErrorCode::kBrokenChannel;
  }
  Endpoint& e = eps[i];
  if (e.alive) {
    // Only an endpoint the death sweep already excised may be rebound: the
    // sweep is what guarantees no grant of the old incarnation survives.
    return base::ErrorCode::kInvalidArgument;
  }
  codoms::AplTable& apl = kernel_->codoms().apl_table();
  apl.Grant(proc.default_domain(), tags().ctrl, codoms::Perm::kWrite);
  apl.Grant(proc.default_domain(), tags().rt, codoms::Perm::kCall);
  e.proc = &proc;
  // Fresh owner key: the dead incarnation's counters stay bulk-revoked under
  // the old one, and late releases of its messages refund nobody.
  e.key = NextOwnerKey();
  // Every template points at a revoked counter; the next grant re-mints cold
  // and tags the new key.
  auto& tmpl = side == Side::kTx ? wtmpl_ : rtmpl_;
  std::fill_n(tmpl.begin() + uint64_t{i} * cfg_.slots, cfg_.slots, std::nullopt);
  if (side == Side::kRx) {
    // The failed FIFO is retired, not destroyed: a thread parked in it may
    // not have resumed yet.
    retired_.push_back(std::move(e.desc));
    e.desc = MakeDesc(i);
  }
  e.credits = credit_line_;
  e.m_credits->Set(static_cast<int64_t>(credit_line_));
  e.alive = true;
  credit_.WakeAll(*kernel_);
  return base::Status::Ok();
}

}  // namespace dipc::chan
