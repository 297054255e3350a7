// stream: one producer and one consumer on separate CPUs over one
// chan::Channel, closed loop (the producer blocks on free slots). Seeded
// bursts of 1..64 messages; payloads mostly 64 B, some 4 KiB and a few
// 64 KiB, so they span sizes inside and beyond the modelled 32 KiB L1.
#include <algorithm>
#include <memory>

#include "chan/channel.h"
#include "workloads.h"

namespace dipcbench {
namespace {

namespace chan = dipc::chan;

constexpr uint32_t kSlots = 64;
constexpr uint64_t kMaxPayload = 64 * 1024;
constexpr uint64_t kWarmup = 2 * kSlots;  // every slot's capabilities minted and warm
constexpr uint64_t kMessages = 64000;
constexpr uint64_t kTotal = kWarmup + kMessages;
constexpr uint32_t kMaxBurst = 64;

struct Inputs {
  std::vector<uint64_t> sizes;   // per message
  std::vector<uint32_t> bursts;  // producer burst lengths, used in turn
};

// Every block of 50 messages holds 45 of 64 B, 4 of 4 KiB and one of 64 KiB
// in seeded order, so large payloads never cluster beyond what the mix
// implies; bursts are uniform in 1..64.
Inputs MakeInputs(uint64_t seed) {
  constexpr uint64_t kBlock = 50;
  Inputs in;
  for (uint64_t block = 0; in.sizes.size() < kTotal; ++block) {
    for (double u : StratifiedUnit(seed ^ 0x57E4A11ULL ^ (block << 32), kBlock)) {
      in.sizes.push_back(u < 0.90 ? 64 : u < 0.98 ? 4096 : kMaxPayload);
    }
  }
  in.sizes.resize(kTotal);
  for (double u : StratifiedUnit(seed ^ 0xB0257ULL, 1024)) {
    in.bursts.push_back(1 + static_cast<uint32_t>(u * kMaxBurst));
  }
  return in;
}

struct StreamWorld {
  World w{4};
  os::Process& prod;
  os::Process& cons;
  std::shared_ptr<chan::Channel> ch;

  StreamWorld()
      : prod(w.dipc.CreateDipcProcess("producer")), cons(w.dipc.CreateDipcProcess("consumer")) {
    auto c = chan::Channel::Create(w.dipc, prod, cons,
                                   chan::ChannelConfig{.slots = kSlots, .buf_bytes = kMaxPayload});
    DIPC_CHECK(c.ok());
    ch = c.value();
  }
};

// Sim time per batch call inside the measured window, timed by the runner.
struct CallTimes {
  double ns = 0;
  uint64_t calls = 0;
  void Add(bool in_window, sim::Duration d) {
    if (in_window) {
      ns += d.nanos();
      ++calls;
    }
  }
  double PerCall() const { return calls > 0 ? ns / static_cast<double>(calls) : 0; }
};

struct State {
  const Inputs& in;
  uint64_t seed;
  Spans* spans;
  uint32_t root;
  Round& r;
  bool window = false;  // between probe Begin and End
  std::vector<sim::Time> acquired_at = std::vector<sim::Time>(kTotal);
  std::vector<double> lat{};
  uint64_t received = 0;
  uint64_t window_msgs_received = 0;
  CallTimes acquire{}, send{}, recv{}, release{};
};

sim::Task<void> Producer(os::Env env, StreamWorld& sw, State& st) {
  os::Kernel& k = *env.kernel;
  uint64_t seq = 0;
  size_t b = 0;
  while (seq < kTotal) {
    uint64_t left = std::min<uint64_t>(st.in.bursts[b++ % st.in.bursts.size()], kTotal - seq);
    while (left > 0) {
      if (seq >= kWarmup && !st.window) {
        sw.w.probe.Begin();
        st.window = true;
      }
      const sim::Time t_acq = k.now();
      dipc::base::Result<std::vector<chan::SendBuf>> bufs = dipc::base::ErrorCode::kFault;
      {
        ScopedSpan span(st.spans, "chan.acquire", seq, st.root, &k);
        bufs = co_await sw.ch->AcquireBufBatch(env, static_cast<uint32_t>(left));
      }
      st.acquire.Add(st.window, k.now() - t_acq);
      if (!bufs.ok() || bufs.value().empty()) {
        st.r.Fail("stream: AcquireBufBatch failed");
        co_return;
      }
      std::vector<chan::SendItem> items;
      for (const chan::SendBuf& buf : bufs.value()) {
        const uint64_t len = st.in.sizes[seq];
        st.acquired_at[seq] = t_acq;
        sw.ch->BindSendCap(*env.self, buf);
        (void)co_await k.TouchUser(env, buf.va, len, hw::AccessType::kWrite);
        {
          CheckTimer t(st.r);
          DIPC_CHECK(k.UserWrite(*env.self, buf.va, PatternBytes(st.seed, seq, len)).ok());
        }
        items.push_back(chan::SendItem{buf, len});
        ++seq;
      }
      const sim::Time t_send = k.now();
      dipc::base::Status sent = dipc::base::ErrorCode::kFault;
      {
        ScopedSpan span(st.spans, "chan.send", seq - items.size(), st.root, &k);
        sent = co_await sw.ch->SendBatch(env, items);
      }
      st.send.Add(st.window, k.now() - t_send);
      st.r.attempted += items.size();
      if (!sent.ok()) {
        st.r.Fail("stream: SendBatch failed");
        co_return;
      }
      left -= items.size();
    }
  }
}

sim::Task<void> Consumer(os::Env env, StreamWorld& sw, State& st) {
  os::Kernel& k = *env.kernel;
  while (st.received < kTotal) {
    const sim::Time t_recv = k.now();
    dipc::base::Result<std::vector<chan::Msg>> msgs = dipc::base::ErrorCode::kFault;
    {
      ScopedSpan span(st.spans, "chan.recv", st.received, st.root, &k);
      msgs = co_await sw.ch->RecvBatch(env, kMaxBurst);
    }
    const sim::Time t_got = k.now();
    st.recv.Add(st.window, t_got - t_recv);
    if (!msgs.ok()) {
      st.r.Fail("stream: RecvBatch failed");
      co_return;
    }
    for (const chan::Msg& m : msgs.value()) {
      sw.ch->BindRecvCap(*env.self, m);
      (void)co_await k.TouchUser(env, m.va, m.len, hw::AccessType::kRead);
      // Verify with the untimed read: exactly once, in order, intact.
      const uint64_t seq = st.received;
      const uint64_t len = st.in.sizes[seq];
      {
        CheckTimer t(st.r);
        std::vector<std::byte> got(m.len);
        const bool read = k.UserRead(*env.self, m.va, got).ok();
        const bool ok = read && m.len == len && got == PatternBytes(st.seed, seq, len);
        if (!ok) {
          st.r.Fail("stream: message " + std::to_string(seq) +
                    " arrived corrupted, out of order or with the wrong length");
        }
      }
      if (seq >= kWarmup) {
        st.lat.push_back((t_got - st.acquired_at[seq]).nanos());
      }
      if (st.window) {
        ++st.window_msgs_received;
      }
      ++st.received;
    }
    const sim::Time t_rel = k.now();
    dipc::base::Status rel = dipc::base::ErrorCode::kFault;
    {
      ScopedSpan span(st.spans, "chan.release", st.received, st.root, &k);
      rel = co_await sw.ch->ReleaseBatch(env, msgs.value());
    }
    st.release.Add(st.window, k.now() - t_rel);
    if (!rel.ok()) {
      st.r.Fail("stream: ReleaseBatch failed");
    }
  }
  sw.w.probe.End();
  st.window = false;
}

}  // namespace

Round StreamRound(uint64_t seed, Spans* spans) {
  Round r;
  const uint32_t root = spans != nullptr ? spans->Begin("bench.round", 0, 0, sim::Time::Zero()) : 0;
  const Inputs in = MakeInputs(seed);
  const double h0 = HostNow();
  std::unique_ptr<StreamWorld> sw;
  {
    ScopedSpan setup(spans, "bench.setup", 0, root);
    sw = std::make_unique<StreamWorld>();
  }
  r.setup_host_s = HostNow() - h0;
  State st{.in = in, .seed = seed, .spans = spans, .root = root, .r = r};
  st.lat.reserve(kMessages);
  sw->w.kernel.Spawn(
      sw->cons, "consumer",
      [&](os::Env env) -> sim::Task<void> { co_await Consumer(env, *sw, st); }, /*pin_cpu=*/1);
  sw->w.kernel.Spawn(
      sw->prod, "producer",
      [&](os::Env env) -> sim::Task<void> { co_await Producer(env, *sw, st); }, /*pin_cpu=*/0);
  sw->w.Run(r);
  r.Check(st.received == kTotal && sw->w.probe.ended(),
          "stream: " + std::to_string(st.received) + " of " + std::to_string(kTotal) +
              " messages arrived");
  if (!sw->w.probe.ended()) {
    return r;
  }
  r.ops = kMessages;
  sw->w.probe.AddLayerMetrics(kMessages, r);
  AddLatencyMetrics(kMessages, sw->w.probe.window_ns(), st.lat, r);
  r.sim["chan.acquire_ns"] = st.acquire.PerCall();
  r.sim["chan.send_ns"] = st.send.PerCall();
  r.sim["chan.recv_ns"] = st.recv.PerCall();
  r.sim["chan.release_ns"] = st.release.PerCall();
  r.sim["chan.recv_batch_mean"] = static_cast<double>(st.window_msgs_received) /
                                  static_cast<double>(std::max<uint64_t>(st.recv.calls, 1));
  const RegistryView& reg = sw->w.probe.registry();
  const std::string p = "chan/" + std::to_string(sw->ch->obs_id()) + "/";
  const double per_k = 1000.0 / static_cast<double>(st.window_msgs_received);
  r.sim["chan.desc_parks"] = reg.Counter(p + "desc/blocked_pops") * per_k;
  r.sim["chan.free_parks"] = reg.Counter(p + "free/blocked_pops") * per_k;
  r.sim["chan.futex_wakes"] =
      (reg.Counter(p + "desc/futex_wakes") + reg.Counter(p + "free/futex_wakes")) * per_k;
  if (spans != nullptr) {
    spans->End(root, sw->w.kernel.now());
  }
  return r;
}

double StreamSetup(uint64_t) {
  const double h0 = HostNow();
  StreamWorld sw;
  return HostNow() - h0;
}

}  // namespace dipcbench
