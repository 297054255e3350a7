// Tests for the baseline IPC stacks: rpcgen-style local RPC and L4-style
// synchronous IPC.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>

#include "codoms/codoms.h"
#include "hw/machine.h"
#include "l4/l4_gate.h"
#include "os/kernel.h"
#include "rpc/marshal.h"
#include "rpc/rpc.h"

namespace dipc {
namespace {

using base::ErrorCode;
using sim::Duration;

TEST(Marshal, RoundTripsScalarsAndStrings) {
  rpc::Encoder enc;
  enc.PutU32(7);
  enc.PutU64(1ull << 40);
  enc.PutString("dvdstore");
  enc.PutI64(-42);
  rpc::Decoder dec(enc.bytes());
  EXPECT_EQ(dec.GetU32().value(), 7u);
  EXPECT_EQ(dec.GetU64().value(), 1ull << 40);
  EXPECT_EQ(dec.GetString().value(), "dvdstore");
  EXPECT_EQ(dec.GetI64().value(), -42);
  EXPECT_TRUE(dec.exhausted());
}

TEST(Marshal, DecodePastEndFails) {
  rpc::Encoder enc;
  enc.PutU32(1);
  rpc::Decoder dec(enc.bytes());
  EXPECT_TRUE(dec.GetU32().ok());
  EXPECT_EQ(dec.GetU64().code(), ErrorCode::kInvalidArgument);
}

TEST(Marshal, CostGrowsWithSize) {
  EXPECT_LT(rpc::MarshalCost(1).nanos(), rpc::MarshalCost(4096).nanos());
}

class IpcStackTest : public ::testing::Test {
 protected:
  IpcStackTest() : machine_(4), codoms_(machine_), kernel_(machine_, codoms_) {}

  hw::Machine machine_;
  codoms::Codoms codoms_;
  os::Kernel kernel_;
};

TEST_F(IpcStackTest, RpcEchoRoundTrip) {
  os::Process& server_proc = kernel_.CreateProcess("server");
  os::Process& client_proc = kernel_.CreateProcess("client");
  auto server = std::make_shared<rpc::RpcServer>(kernel_);
  server->RegisterHandler(1, [](os::Env env, std::vector<std::byte> body)
                                 -> sim::Task<std::vector<std::byte>> {
    // Echo with a twist so we know the handler ran.
    co_await env.kernel->Spend(*env.self, Duration::Nanos(50), os::TimeCat::kUser);
    body.push_back(std::byte{0xAB});
    co_return body;
  });
  auto listener = server->Bind("/tmp/echo.rpc");
  ASSERT_TRUE(listener.ok());
  kernel_.Spawn(server_proc, "svc", [&, server](os::Env env) -> sim::Task<void> {
    auto conn = co_await listener.value()->Accept(env);
    EXPECT_TRUE(conn.ok());
    co_await server->ServeConn(env, std::move(conn).value());
  });
  size_t reply_size = 0;
  std::byte last{};
  kernel_.Spawn(client_proc, "cli", [&](os::Env env) -> sim::Task<void> {
    auto client = co_await rpc::RpcClient::Connect(env, "/tmp/echo.rpc");
    EXPECT_TRUE(client.ok());
    std::vector<std::byte> args{std::byte{1}, std::byte{2}, std::byte{3}};
    auto reply = co_await client.value()->Call(env, 1, args);
    EXPECT_TRUE(reply.ok());
    reply_size = reply->size();
    last = reply->back();
    (void)client.value()->Call(env, 1, args);  // destroyed unawaited: must be safe
  });
  kernel_.Run();
  EXPECT_EQ(reply_size, 4u);
  EXPECT_EQ(last, std::byte{0xAB});
}

TEST_F(IpcStackTest, RpcLatencyNearPaperAnchor) {
  // Paper: Local RPC (=CPU) ~6.9 us round trip for a 1-byte argument.
  os::Process& sp = kernel_.CreateProcess("server");
  os::Process& cp = kernel_.CreateProcess("client");
  auto server = std::make_shared<rpc::RpcServer>(kernel_);
  server->RegisterHandler(7, [](os::Env, std::vector<std::byte> body)
                                 -> sim::Task<std::vector<std::byte>> { co_return body; });
  auto listener = server->Bind("/tmp/lat.rpc");
  ASSERT_TRUE(listener.ok());
  kernel_.Spawn(
      sp, "svc",
      [&, server](os::Env env) -> sim::Task<void> {
        auto conn = co_await listener.value()->Accept(env);
        EXPECT_TRUE(conn.ok());
        co_await server->ServeConn(env, std::move(conn).value());
      },
      /*pin_cpu=*/0);
  constexpr int kCalls = 64;
  double start_ns = 0, end_ns = 0;
  kernel_.Spawn(
      cp, "cli",
      [&](os::Env env) -> sim::Task<void> {
        auto client = co_await rpc::RpcClient::Connect(env, "/tmp/lat.rpc");
        EXPECT_TRUE(client.ok());
        std::vector<std::byte> arg{std::byte{0}};
        // Warmup call, then measure.
        (void)co_await client.value()->Call(env, 7, arg);
        start_ns = env.kernel->now().nanos();
        for (int i = 0; i < kCalls; ++i) {
          auto r = co_await client.value()->Call(env, 7, arg);
          EXPECT_TRUE(r.ok());
        }
        end_ns = env.kernel->now().nanos();
      },
      /*pin_cpu=*/0);
  kernel_.Run();
  double per_call = (end_ns - start_ns) / kCalls;
  EXPECT_GT(per_call, 3000.0);
  EXPECT_LT(per_call, 12000.0);
}

TEST_F(IpcStackTest, L4PingPongNearPaperAnchor) {
  // Paper: L4 (=CPU) round trip ~948 ns (474x a 2 ns function call).
  os::Process& sp = kernel_.CreateProcess("server");
  os::Process& cp = kernel_.CreateProcess("client");
  auto gate = std::make_shared<l4::L4Gate>(kernel_);
  kernel_.Spawn(
      sp, "svc",
      [gate](os::Env env) -> sim::Task<void> {
        l4::Message m = co_await gate->Recv(env);
        while (m.mr[0] != 0) {  // mr[0]==0 terminates
          l4::Message r;
          r.mr[0] = m.mr[0] + 1;
          m = co_await gate->ReplyWait(env, r);
        }
        l4::Message bye;
        co_await gate->ReplyWait(env, bye);
      },
      /*pin_cpu=*/0);
  constexpr int kCalls = 100;
  double start_ns = 0, end_ns = 0;
  uint64_t sum = 0;
  kernel_.Spawn(
      cp, "cli",
      [&, gate](os::Env env) -> sim::Task<void> {
        l4::Message m;
        m.mr[0] = 1;
        (void)co_await gate->Call(env, m);  // warmup
        start_ns = env.kernel->now().nanos();
        for (int i = 1; i <= kCalls; ++i) {
          m.mr[0] = static_cast<uint64_t>(i);
          auto r = co_await gate->Call(env, m);
          EXPECT_TRUE(r.ok());
          sum += r->mr[0];
        }
        end_ns = env.kernel->now().nanos();
        m.mr[0] = 0;
        (void)co_await gate->Call(env, m);  // stop the server
      },
      /*pin_cpu=*/0);
  kernel_.Run();
  EXPECT_EQ(sum, static_cast<uint64_t>(kCalls) * (kCalls + 1) / 2 + kCalls);
  double per_call = (end_ns - start_ns) / kCalls;
  EXPECT_GT(per_call, 700.0);
  EXPECT_LT(per_call, 1300.0);
}

TEST_F(IpcStackTest, L4CrossCpuSlowerThanSameCpu) {
  auto run = [](int server_cpu) {
    hw::Machine machine(2);
    codoms::Codoms codoms(machine);
    os::Kernel kernel(machine, codoms);
    os::Process& sp = kernel.CreateProcess("server");
    os::Process& cp = kernel.CreateProcess("client");
    auto gate = std::make_shared<l4::L4Gate>(kernel);
    kernel.Spawn(
        sp, "svc",
        [gate](os::Env env) -> sim::Task<void> {
          l4::Message m = co_await gate->Recv(env);
          while (m.mr[0] != 0) {
            m = co_await gate->ReplyWait(env, m);
          }
          co_return;
        },
        server_cpu);
    double total = 0;
    kernel.Spawn(
        cp, "cli",
        [&, gate](os::Env env) -> sim::Task<void> {
          l4::Message m;
          m.mr[0] = 5;
          double t0 = env.kernel->now().nanos();
          for (int i = 0; i < 20; ++i) {
            (void)co_await gate->Call(env, m);
          }
          total = env.kernel->now().nanos() - t0;
          m.mr[0] = 0;
          (void)co_await gate->Call(env, m);
        },
        /*pin_cpu=*/0);
    kernel.Run();
    return total / 20;
  };
  double same = run(0);
  double cross = run(1);
  EXPECT_GT(cross, same * 1.3) << "same=" << same << " cross=" << cross;
}

TEST_F(IpcStackTest, L4MultipleCallersServedFifo) {
  os::Process& sp = kernel_.CreateProcess("server");
  os::Process& cp = kernel_.CreateProcess("clients");
  auto gate = std::make_shared<l4::L4Gate>(kernel_);
  kernel_.Spawn(sp, "svc", [gate](os::Env env) -> sim::Task<void> {
    l4::Message m = co_await gate->Recv(env);
    for (int served = 1; served < 3; ++served) {
      l4::Message r;
      r.mr[0] = m.mr[0] * 10;
      m = co_await gate->ReplyWait(env, r);
    }
    l4::Message r;
    r.mr[0] = m.mr[0] * 10;
    co_await gate->ReplyWait(env, r);  // final reply; server then idles
  });
  std::vector<uint64_t> replies;
  for (int i = 1; i <= 3; ++i) {
    std::string name = "c";
    name += std::to_string(i);
    kernel_.Spawn(cp, std::move(name), [&, gate, i](os::Env env) -> sim::Task<void> {
      l4::Message m;
      m.mr[0] = static_cast<uint64_t>(i);
      auto r = co_await gate->Call(env, m);
      EXPECT_TRUE(r.ok());
      replies.push_back(r->mr[0]);
    });
  }
  kernel_.Run();
  ASSERT_EQ(replies.size(), 3u);
  for (uint64_t v : replies) {
    EXPECT_TRUE(v == 10 || v == 20 || v == 30);
  }
}

}  // namespace
}  // namespace dipc
