// Shape-parameterised tests of the channel plane (src/chan/plane.h): every
// scenario runs once through each public view — Channel (1x1), FanOutChannel
// (1xN) and FanInChannel (Mx1), each with one producer and one receiver —
// so the one publish/recv/release path is checked under every gate.
#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "chan/channel.h"
#include "chan/fanin.h"
#include "chan/fanout.h"
#include "codoms/codoms.h"
#include "dipc/dipc.h"
#include "hw/machine.h"
#include "os/deadline.h"
#include "os/kernel.h"

namespace dipc::chan {
namespace {

using base::ErrorCode;
using sim::Duration;

enum class Shape { kChannel, kFanOut, kFanIn };

// The view calls the scenarios need, with producer and receiver index 0.
class Rig {
 public:
  virtual ~Rig() = default;
  virtual sim::Task<base::Result<std::vector<SendBuf>>> Acquire(os::Env env, uint32_t n,
                                                                os::Deadline dl) = 0;
  virtual sim::Task<base::Status> SendBatch(os::Env env, std::span<const SendItem> items) = 0;
  virtual sim::Task<base::Status> AbandonBatch(os::Env env, std::span<const SendBuf> bufs) = 0;
  virtual sim::Task<base::Result<std::vector<Msg>>> RecvBatch(os::Env env, uint32_t n) = 0;
  virtual sim::Task<base::Status> ReleaseBatch(os::Env env, std::span<const Msg> msgs) = 0;
  virtual void Close() = 0;
  virtual uint64_t LiveGrantCount() const = 0;
  virtual const Plane& plane() const = 0;
};

class ChannelRig : public Rig {
 public:
  explicit ChannelRig(std::shared_ptr<Channel> ch) : ch_(std::move(ch)) {}
  sim::Task<base::Result<std::vector<SendBuf>>> Acquire(os::Env env, uint32_t n,
                                                        os::Deadline dl) override {
    return ch_->AcquireBufBatch(env, n, dl);
  }
  sim::Task<base::Status> SendBatch(os::Env env, std::span<const SendItem> items) override {
    return ch_->SendBatch(env, items);
  }
  sim::Task<base::Status> AbandonBatch(os::Env env, std::span<const SendBuf> bufs) override {
    return ch_->AbandonBatch(env, bufs);
  }
  sim::Task<base::Result<std::vector<Msg>>> RecvBatch(os::Env env, uint32_t n) override {
    return ch_->RecvBatch(env, n);
  }
  sim::Task<base::Status> ReleaseBatch(os::Env env, std::span<const Msg> msgs) override {
    return ch_->ReleaseBatch(env, msgs);
  }
  void Close() override { ch_->Close(); }
  uint64_t LiveGrantCount() const override { return ch_->LiveGrantCount(); }
  const Plane& plane() const override { return ch_->plane(); }

 private:
  std::shared_ptr<Channel> ch_;
};

class FanOutRig : public Rig {
 public:
  explicit FanOutRig(std::shared_ptr<FanOutChannel> ch) : ch_(std::move(ch)) {}
  sim::Task<base::Result<std::vector<SendBuf>>> Acquire(os::Env env, uint32_t n,
                                                        os::Deadline dl) override {
    return ch_->AcquireBufBatch(env, n, dl);
  }
  sim::Task<base::Status> SendBatch(os::Env env, std::span<const SendItem> items) override {
    return ch_->SendBatch(env, items);
  }
  sim::Task<base::Status> AbandonBatch(os::Env env, std::span<const SendBuf> bufs) override {
    return ch_->AbandonBatch(env, bufs);
  }
  sim::Task<base::Result<std::vector<Msg>>> RecvBatch(os::Env env, uint32_t n) override {
    return ch_->RecvBatch(env, 0, n);
  }
  sim::Task<base::Status> ReleaseBatch(os::Env env, std::span<const Msg> msgs) override {
    return ch_->ReleaseBatch(env, 0, msgs);
  }
  void Close() override { ch_->Close(); }
  uint64_t LiveGrantCount() const override { return ch_->LiveGrantCount(); }
  const Plane& plane() const override { return ch_->plane(); }

 private:
  std::shared_ptr<FanOutChannel> ch_;
};

class FanInRig : public Rig {
 public:
  explicit FanInRig(std::shared_ptr<FanInChannel> ch) : ch_(std::move(ch)) {}
  sim::Task<base::Result<std::vector<SendBuf>>> Acquire(os::Env env, uint32_t n,
                                                        os::Deadline dl) override {
    return ch_->AcquireBufBatch(env, 0, n, dl);
  }
  sim::Task<base::Status> SendBatch(os::Env env, std::span<const SendItem> items) override {
    return ch_->SendBatch(env, 0, items);
  }
  sim::Task<base::Status> AbandonBatch(os::Env env, std::span<const SendBuf> bufs) override {
    return ch_->AbandonBatch(env, 0, bufs);
  }
  sim::Task<base::Result<std::vector<Msg>>> RecvBatch(os::Env env, uint32_t n) override {
    return ch_->RecvBatch(env, n);
  }
  sim::Task<base::Status> ReleaseBatch(os::Env env, std::span<const Msg> msgs) override {
    return ch_->ReleaseBatch(env, msgs);
  }
  void Close() override { ch_->Close(); }
  uint64_t LiveGrantCount() const override { return ch_->LiveGrantCount(); }
  const Plane& plane() const override { return ch_->plane(); }

 private:
  std::shared_ptr<FanInChannel> ch_;
};

class PlaneTest : public ::testing::TestWithParam<Shape> {
 protected:
  static constexpr uint32_t kSlots = 4;

  PlaneTest()
      : machine_(4),
        codoms_(machine_),
        kernel_(machine_, codoms_),
        dipc_(kernel_),
        prod_(dipc_.CreateDipcProcess("producer")),
        cons_(dipc_.CreateDipcProcess("consumer")) {}

  std::unique_ptr<Rig> MakeRig() {
    os::Process* prods[] = {&prod_};
    os::Process* conss[] = {&cons_};
    const PlaneConfig cfg{.slots = kSlots, .buf_bytes = 4096};
    switch (GetParam()) {
      case Shape::kChannel:
        return std::make_unique<ChannelRig>(
            Channel::Create(dipc_, prod_, cons_, {.slots = kSlots, .buf_bytes = 4096}).value());
      case Shape::kFanOut:
        return std::make_unique<FanOutRig>(
            FanOutChannel::Create(dipc_, prod_, conss, cfg).value());
      case Shape::kFanIn:
        return std::make_unique<FanInRig>(FanInChannel::Create(dipc_, prods, cons_, cfg).value());
    }
    return nullptr;
  }

  // Credits left on the one gated line (receiver 0 for fan-out, producer 0
  // for fan-in); a Channel has no credit line.
  static uint64_t GatedCredits(const Plane& plane) {
    switch (GetParam()) {
      case Shape::kFanOut:
        return plane.rx(0).credits;
      case Shape::kFanIn:
        return plane.tx(0).credits;
      default:
        return 0;
    }
  }

  static std::vector<SendItem> Items(const std::vector<SendBuf>& bufs) {
    std::vector<SendItem> items;
    for (const SendBuf& b : bufs) {
      items.push_back(SendItem{b, 64});
    }
    return items;
  }

  hw::Machine machine_;
  codoms::Codoms codoms_;
  os::Kernel kernel_;
  core::Dipc dipc_;
  os::Process& prod_;
  os::Process& cons_;
};

// A Close that lands while the sender is suspended in the send's Spend must
// fail the send with kBrokenChannel and leave no grant behind: the read
// grants recorded for the never-published descriptors are revoked, not
// leaked, and the producer's write grants ended with the publish attempt.
TEST_P(PlaneTest, CloseDuringSendSpendFailsTheSendAndLeaksNoGrant) {
  std::unique_ptr<Rig> rig = MakeRig();
  const sim::Time send_at = sim::Time() + Duration::Micros(10);
  sim::Time send_started, closed_at, send_returned;
  ErrorCode sent = ErrorCode::kOk;
  kernel_.Spawn(
      prod_, "producer",
      [&](os::Env env) -> sim::Task<void> {
        auto bufs = co_await rig->Acquire(env, 2, {});
        EXPECT_TRUE(bufs.ok());
        if (!bufs.ok()) {
          co_return;
        }
        std::vector<SendItem> items = Items(bufs.value());
        co_await env.kernel->Sleep(env, send_at - env.kernel->now());
        send_started = env.kernel->now();
        sent = (co_await rig->SendBatch(env, items)).code();
        send_returned = env.kernel->now();
      },
      /*pin_cpu=*/0);
  kernel_.Spawn(
      cons_, "closer",
      [&](os::Env env) -> sim::Task<void> {
        co_await env.kernel->Sleep(env, send_at + Duration::Nanos(20) - env.kernel->now());
        closed_at = env.kernel->now();
        rig->Close();
      },
      /*pin_cpu=*/1);
  kernel_.Run();
  // The scenario only means something if the Close fell inside the send.
  ASSERT_LT(send_started, closed_at);
  ASSERT_LT(closed_at, send_returned);
  EXPECT_EQ(sent, ErrorCode::kBrokenChannel);
  EXPECT_EQ(rig->LiveGrantCount(), 0u);
}

// A plain write over a stored read capability (§4.2 unforgeability) must
// not cost the batch its healthy messages: RecvBatch delivers them, recycles
// the corrupted slot and refunds its credit, and once the healthy messages
// are released no grant is live and the whole pool can be acquired again.
TEST_P(PlaneTest, CorruptedCapabilityIsRecycledAndHealthyMessagesDeliver) {
  std::unique_ptr<Rig> rig = MakeRig();
  const Plane& plane = rig->plane();
  const uint64_t line = GatedCredits(plane);
  std::vector<uint32_t> sent_slots;
  std::vector<uint32_t> got_slots;
  uint64_t credits_after_recv = 0;
  bool pool_whole = false;
  kernel_.Spawn(
      prod_, "producer",
      [&](os::Env env) -> sim::Task<void> {
        auto bufs = co_await rig->Acquire(env, 3, {});
        EXPECT_TRUE(bufs.ok() && bufs.value().size() == 3u);
        if (!bufs.ok() || bufs.value().size() != 3u) {
          co_return;
        }
        std::vector<SendItem> items = Items(bufs.value());
        for (const SendBuf& b : bufs.value()) {
          sent_slots.push_back(b.index);
        }
        EXPECT_TRUE((co_await rig->SendBatch(env, items)).ok());
        auto pa = prod_.page_table().Translate(plane.CapSlotVa(0, sent_slots[1]));
        EXPECT_TRUE(pa.has_value());
        if (pa.has_value()) {
          codoms_.NotifyPlainWrite(*pa, 8);
        }
        // After the consumer released: the corrupted slot is back in the
        // pool, so every slot can be taken without waiting.
        co_await env.kernel->Sleep(env, Duration::Micros(50));
        auto all = co_await rig->Acquire(env, kSlots,
                                         os::Deadline::After(env.kernel->now(), Duration::Micros(5)));
        pool_whole = all.ok() && all.value().size() == kSlots;
        if (all.ok()) {
          EXPECT_TRUE((co_await rig->AbandonBatch(env, all.value())).ok());
        }
      },
      /*pin_cpu=*/0);
  kernel_.Spawn(
      cons_, "consumer",
      [&](os::Env env) -> sim::Task<void> {
        co_await env.kernel->Sleep(env, Duration::Micros(20));
        auto msgs = co_await rig->RecvBatch(env, kSlots);
        EXPECT_TRUE(msgs.ok());
        if (!msgs.ok()) {
          co_return;
        }
        for (const Msg& m : msgs.value()) {
          got_slots.push_back(m.index);
        }
        credits_after_recv = GatedCredits(plane);
        EXPECT_TRUE((co_await rig->ReleaseBatch(env, msgs.value())).ok());
      },
      /*pin_cpu=*/1);
  kernel_.Run();
  ASSERT_EQ(sent_slots.size(), 3u);
  EXPECT_EQ(got_slots, (std::vector<uint32_t>{sent_slots[0], sent_slots[2]}));
  // Three credits went out with the batch; the corrupted delivery's came back.
  EXPECT_EQ(credits_after_recv, line == 0 ? 0 : line - 2);
  EXPECT_EQ(GatedCredits(plane), line);
  EXPECT_EQ(rig->LiveGrantCount(), 0u);
  EXPECT_TRUE(pool_whole);
}

INSTANTIATE_TEST_SUITE_P(Shapes, PlaneTest,
                         ::testing::Values(Shape::kChannel, Shape::kFanOut, Shape::kFanIn),
                         [](const ::testing::TestParamInfo<Shape>& info) -> std::string {
                           switch (info.param) {
                             case Shape::kChannel:
                               return "Channel";
                             case Shape::kFanOut:
                               return "FanOut";
                             default:
                               return "FanIn";
                           }
                         });

}  // namespace
}  // namespace dipc::chan
