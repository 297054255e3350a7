#include "chan/channel.h"

namespace dipc::chan {

base::Result<std::shared_ptr<Channel>> Channel::Create(core::Dipc& dipc, os::Process& sender,
                                                       os::Process& receiver, ChannelConfig cfg) {
  os::Process* tx[] = {&sender};
  os::Process* rx[] = {&receiver};
  return Plane::Create<Channel>(
      dipc, Gate::kNone, tx, rx,
      PlaneConfig{.slots = cfg.slots, .buf_bytes = cfg.buf_bytes, .ctrl_tag = cfg.ctrl_tag,
                  .data_tag = cfg.data_tag, .rt_tag = cfg.rt_tag});
}

base::Result<std::shared_ptr<DuplexChannel>> DuplexChannel::Create(
    core::Dipc& dipc, os::Process& a, os::Process& b, ChannelConfig fwd,
    std::optional<ChannelConfig> rev) {
  // Both directions express the same trust relationship, so they share one
  // domain-tag trio (keeps the per-CPU APL cache warm; see ChannelConfig).
  // The trio is atomic: either the caller pins all three tags or none — a
  // partial trio would silently give the two rings different data/rt tags
  // and defeat the sharing the API promises.
  const int pinned = (fwd.ctrl_tag != hw::kInvalidDomainTag ? 1 : 0) +
                     (fwd.data_tag != hw::kInvalidDomainTag ? 1 : 0) +
                     (fwd.rt_tag != hw::kInvalidDomainTag ? 1 : 0);
  if (pinned != 0 && pinned != 3) {
    return base::ErrorCode::kInvalidArgument;
  }
  if (pinned == 0) {
    codoms::AplTable& apl = dipc.kernel().codoms().apl_table();
    fwd.ctrl_tag = apl.AllocateTag();
    fwd.data_tag = apl.AllocateTag();
    fwd.rt_tag = apl.AllocateTag();
  }
  ChannelConfig rcfg = rev.value_or(fwd);
  rcfg.ctrl_tag = fwd.ctrl_tag;
  rcfg.data_tag = fwd.data_tag;
  rcfg.rt_tag = fwd.rt_tag;
  auto f = Channel::Create(dipc, a, b, fwd);
  if (!f.ok()) {
    return f.code();
  }
  auto r = Channel::Create(dipc, b, a, rcfg);
  if (!r.ok()) {
    return r.code();
  }
  return std::shared_ptr<DuplexChannel>(new DuplexChannel(f.value(), r.value()));
}

}  // namespace dipc::chan
