// Gate-parameterised tests of the channel plane (src/chan/plane.h): every
// scenario runs once per Gate — kNone (the Channel shape, 1x1), kDelivery
// (fan-out) and kAdmission (fan-in), each with one producer and one
// receiver — so the one publish/recv/release path is checked under every
// gate.
#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "chan/plane.h"
#include "codoms/codoms.h"
#include "dipc/dipc.h"
#include "hw/machine.h"
#include "os/deadline.h"
#include "os/kernel.h"

namespace dipc::chan {
namespace {

using base::ErrorCode;
using sim::Duration;

class PlaneTest : public ::testing::TestWithParam<Gate> {
 protected:
  static constexpr uint32_t kSlots = 4;

  PlaneTest()
      : machine_(4),
        codoms_(machine_),
        kernel_(machine_, codoms_),
        dipc_(kernel_),
        prod_(dipc_.CreateDipcProcess("producer")),
        cons_(dipc_.CreateDipcProcess("consumer")) {}

  std::shared_ptr<Plane> MakePlane() {
    os::Process* prods[] = {&prod_};
    os::Process* conss[] = {&cons_};
    return Plane::Create(dipc_, GetParam(), prods, conss, {.slots = kSlots, .buf_bytes = 4096})
        .value();
  }

  // Credits left on the one gated line (receiver 0 for fan-out, producer 0
  // for fan-in); kNone has no credit line.
  static uint64_t GatedCredits(const Plane& plane) {
    switch (GetParam()) {
      case Gate::kDelivery:
        return plane.rx(0).credits;
      case Gate::kAdmission:
        return plane.tx(0).credits;
      default:
        return 0;
    }
  }

  // The fan-out instance broadcasts; the others name their one receiver.
  static uint32_t Target(const Plane& plane) {
    return GetParam() == Gate::kDelivery ? plane.rx_count() : 0;
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
  std::shared_ptr<Plane> plane = MakePlane();
  const sim::Time send_at = sim::Time() + Duration::Micros(10);
  sim::Time send_started, closed_at, send_returned;
  ErrorCode sent = ErrorCode::kOk;
  kernel_.Spawn(
      prod_, "producer",
      [&](os::Env env) -> sim::Task<void> {
        auto bufs = co_await plane->AcquireBufBatch(env, 0, 2);
        EXPECT_TRUE(bufs.ok());
        if (!bufs.ok()) {
          co_return;
        }
        std::vector<SendItem> items = Items(bufs.value());
        co_await env.kernel->Sleep(env, send_at - env.kernel->now());
        send_started = env.kernel->now();
        sent = (co_await plane->SendBatch(env, 0, items, Target(*plane))).code();
        send_returned = env.kernel->now();
      },
      /*pin_cpu=*/0);
  kernel_.Spawn(
      cons_, "closer",
      [&](os::Env env) -> sim::Task<void> {
        co_await env.kernel->Sleep(env, send_at + Duration::Nanos(20) - env.kernel->now());
        closed_at = env.kernel->now();
        plane->Close();
      },
      /*pin_cpu=*/1);
  kernel_.Run();
  // The scenario only means something if the Close fell inside the send.
  ASSERT_LT(send_started, closed_at);
  ASSERT_LT(closed_at, send_returned);
  EXPECT_EQ(sent, ErrorCode::kBrokenChannel);
  EXPECT_EQ(plane->LiveGrantCount(), 0u);
}

// A plain write over a stored read capability (§4.2 unforgeability) must
// not cost the batch its healthy messages: RecvBatch delivers them, recycles
// the corrupted slot and refunds its credit, and once the healthy messages
// are released no grant is live and the whole pool can be acquired again.
TEST_P(PlaneTest, CorruptedCapabilityIsRecycledAndHealthyMessagesDeliver) {
  std::shared_ptr<Plane> plane = MakePlane();
  const uint64_t line = GatedCredits(*plane);
  std::vector<uint32_t> sent_slots;
  std::vector<uint32_t> got_slots;
  uint64_t credits_after_recv = 0;
  bool pool_whole = false;
  kernel_.Spawn(
      prod_, "producer",
      [&](os::Env env) -> sim::Task<void> {
        auto bufs = co_await plane->AcquireBufBatch(env, 0, 3);
        EXPECT_TRUE(bufs.ok() && bufs.value().size() == 3u);
        if (!bufs.ok() || bufs.value().size() != 3u) {
          co_return;
        }
        std::vector<SendItem> items = Items(bufs.value());
        for (const SendBuf& b : bufs.value()) {
          sent_slots.push_back(b.index);
        }
        EXPECT_TRUE((co_await plane->SendBatch(env, 0, items, Target(*plane))).ok());
        auto pa = prod_.page_table().Translate(plane->CapSlotVa(0, sent_slots[1]));
        EXPECT_TRUE(pa.has_value());
        if (pa.has_value()) {
          codoms_.NotifyPlainWrite(*pa, 8);
        }
        // After the consumer released: the corrupted slot is back in the
        // pool, so every slot can be taken without waiting.
        co_await env.kernel->Sleep(env, Duration::Micros(50));
        auto all = co_await plane->AcquireBufBatch(
            env, 0, kSlots, os::Deadline::After(env.kernel->now(), Duration::Micros(5)));
        pool_whole = all.ok() && all.value().size() == kSlots;
        if (all.ok()) {
          EXPECT_TRUE((co_await plane->AbandonBatch(env, 0, all.value())).ok());
        }
      },
      /*pin_cpu=*/0);
  kernel_.Spawn(
      cons_, "consumer",
      [&](os::Env env) -> sim::Task<void> {
        co_await env.kernel->Sleep(env, Duration::Micros(20));
        auto msgs = co_await plane->RecvBatch(env, 0, kSlots);
        EXPECT_TRUE(msgs.ok());
        if (!msgs.ok()) {
          co_return;
        }
        for (const Msg& m : msgs.value()) {
          got_slots.push_back(m.index);
        }
        credits_after_recv = GatedCredits(*plane);
        EXPECT_TRUE((co_await plane->ReleaseBatch(env, 0, msgs.value())).ok());
      },
      /*pin_cpu=*/1);
  kernel_.Run();
  ASSERT_EQ(sent_slots.size(), 3u);
  EXPECT_EQ(got_slots, (std::vector<uint32_t>{sent_slots[0], sent_slots[2]}));
  // Three credits went out with the batch; the corrupted delivery's came back.
  EXPECT_EQ(credits_after_recv, line == 0 ? 0 : line - 2);
  EXPECT_EQ(GatedCredits(*plane), line);
  EXPECT_EQ(plane->LiveGrantCount(), 0u);
  EXPECT_TRUE(pool_whole);
}

// Instances are named after the shape each gate gives a plane.
INSTANTIATE_TEST_SUITE_P(Shapes, PlaneTest,
                         ::testing::Values(Gate::kNone, Gate::kDelivery, Gate::kAdmission),
                         [](const ::testing::TestParamInfo<Gate>& info) -> std::string {
                           switch (info.param) {
                             case Gate::kNone:
                               return "Channel";
                             case Gate::kDelivery:
                               return "FanOut";
                             default:
                               return "FanIn";
                           }
                         });

}  // namespace
}  // namespace dipc::chan
