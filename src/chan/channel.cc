#include "chan/channel.h"

namespace dipc::chan {

base::Result<std::shared_ptr<Channel>> Channel::Create(core::Dipc& dipc, os::Process& sender,
                                                       os::Process& receiver, ChannelConfig cfg) {
  os::Process* tx[] = {&sender};
  os::Process* rx[] = {&receiver};
  auto plane = Plane::Create(dipc, Gate::kNone, tx, rx,
                             PlaneConfig{.slots = cfg.slots, .buf_bytes = cfg.buf_bytes,
                                         .tags = cfg.tags});
  if (!plane.ok()) {
    return plane.code();
  }
  return std::shared_ptr<Channel>(new Channel(std::move(plane).value()));
}

}  // namespace dipc::chan
