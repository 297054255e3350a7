// Unit tests for the OS kernel substrate: scheduling, time accounting,
// semaphores, pipes, UNIX sockets, user memory, and thread lifecycle.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "codoms/codoms.h"
#include "fault/fault.h"
#include "hw/machine.h"
#include "os/kernel.h"
#include "os/pipe.h"
#include "os/semaphore.h"
#include "os/unix_socket.h"

namespace dipc::os {
namespace {

using sim::Duration;

class OsTest : public ::testing::Test {
 protected:
  OsTest() : machine_(4), codoms_(machine_), kernel_(machine_, codoms_) {}

  hw::Machine machine_;
  codoms::Codoms codoms_;
  Kernel kernel_;
};

TEST_F(OsTest, SpawnRunsToCompletion) {
  bool ran = false;
  Process& p = kernel_.CreateProcess("p");
  kernel_.Spawn(p, "t", [&ran](Env env) -> sim::Task<void> {
    co_await env.kernel->Spend(*env.self, Duration::Nanos(100), TimeCat::kUser);
    ran = true;
  });
  kernel_.Run();
  EXPECT_TRUE(ran);
  EXPECT_GE(kernel_.now().nanos(), 100.0);
}

TEST_F(OsTest, SpendAdvancesVirtualTimeAndAccounts) {
  Process& p = kernel_.CreateProcess("p");
  kernel_.Spawn(p, "t", [](Env env) -> sim::Task<void> {
    co_await env.kernel->Spend(*env.self, Duration::Micros(3), TimeCat::kUser);
    co_await env.kernel->Spend(*env.self, Duration::Micros(1), TimeCat::kKernel);
  });
  kernel_.Run();
  TimeBreakdown b = kernel_.accounting().Summed();
  EXPECT_NEAR(b[TimeCat::kUser].micros(), 3.0, 1e-9);
  EXPECT_NEAR(b[TimeCat::kKernel].micros(), 1.0, 1e-9);
}

// Two threads pinned to two CPUs spend interleaved and tied durations and
// log as they go. Spends that end before anything else is due complete in
// place; the rest queue. Either way the interleaving, the clock and the
// event count are those of a run where every Spend queues (bare RunOne()
// calls never complete one in place).
TEST(OsSpendTest, PinnedThreadsInterleaveExactlyAsWhenEverySpendQueues) {
  struct Run {
    std::vector<std::string> log;
    uint64_t fired = 0;
    sim::Time now;
  };
  auto run = [](bool queued_only) {
    hw::Machine machine(2);
    codoms::Codoms codoms(machine);
    Kernel kernel(machine, codoms);
    Process& p = kernel.CreateProcess("p");
    Run r;
    std::optional<sim::Time> start;
    // Both threads start at the same instant, A's first (it was spawned
    // first). Times are logged in ns since then.
    auto body = [&r, &start](const char* who, Duration first, Duration second) {
      return [&r, &start, who, first, second](Env env) -> sim::Task<void> {
        if (!start.has_value()) {
          start = env.kernel->now();
        }
        auto note = [&] {
          r.log.push_back(std::string(who) + "@" +
                          std::to_string((env.kernel->now() - *start).picos() / 1000));
        };
        note();
        co_await env.kernel->Spend(*env.self, first, TimeCat::kUser);
        note();
        co_await env.kernel->Spend(*env.self, second, TimeCat::kUser);
        note();
      };
    };
    kernel.Spawn(p, "A", body("A", Duration::Nanos(100), Duration::Nanos(50)), /*pin_cpu=*/0);
    kernel.Spawn(p, "B", body("B", Duration::Nanos(50), Duration::Nanos(100)), /*pin_cpu=*/1);
    if (queued_only) {
      while (machine.events().RunOne()) {
      }
    } else {
      kernel.Run();
    }
    r.fired = machine.events().total_fired();
    r.now = machine.events().now();
    return r;
  };
  const Run in_place = run(/*queued_only=*/false);
  const Run queued = run(/*queued_only=*/true);
  // B's first Spend ends at 50, before A's at 100, and completes in place.
  // A's second Spend ends at 150, tied with B's second, which was queued
  // first: B logs first.
  const std::vector<std::string> expected = {"A@0",  "B@0",   "B@50",
                                             "A@100", "B@150", "A@150"};
  EXPECT_EQ(in_place.log, expected);
  EXPECT_EQ(queued.log, expected);
  EXPECT_EQ(in_place.fired, queued.fired);
  EXPECT_EQ(in_place.now, queued.now);
}

TEST_F(OsTest, JoinWaitsForTarget) {
  Process& p = kernel_.CreateProcess("p");
  double joined_at = -1;
  Thread& worker = kernel_.Spawn(p, "worker", [](Env env) -> sim::Task<void> {
    co_await env.kernel->Spend(*env.self, Duration::Micros(10), TimeCat::kUser);
  });
  kernel_.Spawn(p, "joiner", [&](Env env) -> sim::Task<void> {
    co_await env.kernel->Join(env, worker);
    joined_at = env.kernel->now().nanos();
  });
  kernel_.Run();
  EXPECT_GE(joined_at, 10000.0);
}

TEST_F(OsTest, JoinOnDeadThreadReturnsImmediately) {
  Process& p = kernel_.CreateProcess("p");
  Thread& worker = kernel_.Spawn(p, "w", [](Env) -> sim::Task<void> { co_return; });
  kernel_.Run();
  ASSERT_EQ(worker.state(), ThreadState::kDead);
  bool joined = false;
  kernel_.Spawn(p, "j", [&](Env env) -> sim::Task<void> {
    co_await env.kernel->Join(env, worker);
    joined = true;
  });
  kernel_.Run();
  EXPECT_TRUE(joined);
}

TEST_F(OsTest, PinnedThreadsShareOneCpu) {
  Process& p = kernel_.CreateProcess("p");
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) {
    kernel_.Spawn(
        p, "t" + std::to_string(i),
        [&order, i](Env env) -> sim::Task<void> {
          co_await env.kernel->Spend(*env.self, Duration::Micros(5), TimeCat::kUser);
          order.push_back(i);
        },
        /*pin_cpu=*/0);
  }
  kernel_.Run();
  // Serialized on CPU 0: finish times are 5, 10+, 15+ us (plus switch costs).
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_GE(kernel_.now().micros(), 15.0);
}

TEST_F(OsTest, UnpinnedThreadsSpreadAcrossCpus) {
  Process& p = kernel_.CreateProcess("p");
  for (int i = 0; i < 4; ++i) {
    kernel_.Spawn(p, "t" + std::to_string(i), [](Env env) -> sim::Task<void> {
      co_await env.kernel->Spend(*env.self, Duration::Micros(100), TimeCat::kUser);
    });
  }
  kernel_.Run();
  // 4 threads on 4 CPUs run in parallel: wall time ~100us, not ~400us.
  EXPECT_LT(kernel_.now().micros(), 150.0);
}

TEST_F(OsTest, SleepBlocksWithoutHoldingCpu) {
  Process& p = kernel_.CreateProcess("p");
  double awake_at = 0;
  bool other_ran = false;
  kernel_.Spawn(
      p, "sleeper",
      [&](Env env) -> sim::Task<void> {
        co_await env.kernel->Sleep(env, Duration::Millis(1));
        awake_at = env.kernel->now().micros();
      },
      /*pin_cpu=*/0);
  kernel_.Spawn(
      p, "other",
      [&](Env env) -> sim::Task<void> {
        co_await env.kernel->Spend(*env.self, Duration::Micros(10), TimeCat::kUser);
        other_ran = true;
      },
      /*pin_cpu=*/0);
  kernel_.Run();
  EXPECT_TRUE(other_ran);
  EXPECT_GE(awake_at, 1000.0);
}

TEST_F(OsTest, IdleTimeIsAccounted) {
  Process& p = kernel_.CreateProcess("p");
  kernel_.Spawn(
      p, "t",
      [](Env env) -> sim::Task<void> {
        co_await env.kernel->Sleep(env, Duration::Micros(100));
        co_await env.kernel->Spend(*env.self, Duration::Micros(1), TimeCat::kUser);
      },
      /*pin_cpu=*/0);
  kernel_.Run();
  // CPU 0 idled for ~100us while the thread slept.
  EXPECT_GT(kernel_.accounting().cpu(0)[TimeCat::kIdle].micros(), 90.0);
}

// --- Semaphores ---

TEST_F(OsTest, SemaphoreUncontendedStaysInUserSpace) {
  Process& p = kernel_.CreateProcess("p");
  auto sem = std::make_shared<Semaphore>(1);
  kernel_.Spawn(p, "t", [sem](Env env) -> sim::Task<void> {
    co_await sem->Wait(env);
    co_await sem->Post(env);
  });
  kernel_.Run();
  TimeBreakdown b = kernel_.accounting().Summed();
  EXPECT_EQ(b[TimeCat::kSyscallCrossing], Duration::Zero());
  EXPECT_EQ(sem->count(), 1);
}

TEST_F(OsTest, SemaphorePingPongSameCpu) {
  Process& p = kernel_.CreateProcess("p");
  auto a = std::make_shared<Semaphore>(0);
  auto b = std::make_shared<Semaphore>(0);
  constexpr int kRounds = 100;
  kernel_.Spawn(
      p, "ping",
      [a, b](Env env) -> sim::Task<void> {
        for (int i = 0; i < kRounds; ++i) {
          co_await a->Post(env);
          co_await b->Wait(env);
        }
      },
      /*pin_cpu=*/0);
  kernel_.Spawn(
      p, "pong",
      [a, b](Env env) -> sim::Task<void> {
        for (int i = 0; i < kRounds; ++i) {
          co_await a->Wait(env);
          co_await b->Post(env);
        }
      },
      /*pin_cpu=*/0);
  kernel_.Run();
  EXPECT_EQ(a->waiter_count(), 0u);
  EXPECT_EQ(b->waiter_count(), 0u);
  // A contended round trip costs on the order of 1.5 us (Fig. 2 anchor).
  double per_round = kernel_.now().nanos() / kRounds;
  EXPECT_GT(per_round, 500.0);
  EXPECT_LT(per_round, 4000.0);
  // No IPIs on the same CPU: cross-CPU costs must not appear.
  EXPECT_EQ(kernel_.accounting().cpu(1).Total(), Duration::Zero());
}

TEST_F(OsTest, SemaphorePingPongCrossCpuIsSlower) {
  auto run = [](int cpu_a, int cpu_b) {
    hw::Machine machine(4);
    codoms::Codoms codoms(machine);
    Kernel kernel(machine, codoms);
    Process& p = kernel.CreateProcess("p");
    auto a = std::make_shared<Semaphore>(0);
    auto b = std::make_shared<Semaphore>(0);
    constexpr int kRounds = 50;
    kernel.Spawn(
        p, "ping",
        [a, b](Env env) -> sim::Task<void> {
          for (int i = 0; i < kRounds; ++i) {
            co_await a->Post(env);
            co_await b->Wait(env);
          }
        },
        cpu_a);
    kernel.Spawn(
        p, "pong",
        [a, b](Env env) -> sim::Task<void> {
          for (int i = 0; i < kRounds; ++i) {
            co_await a->Wait(env);
            co_await b->Post(env);
          }
        },
        cpu_b);
    kernel.Run();
    return kernel.now().nanos() / kRounds;
  };
  double same = run(0, 0);
  double cross = run(0, 1);
  EXPECT_GT(cross, same * 1.5) << "same=" << same << " cross=" << cross;
}

// --- Pipes ---

TEST_F(OsTest, PipeTransfersBytesIntact) {
  Process& p = kernel_.CreateProcess("p");
  auto pipe = std::make_shared<Pipe>(kernel_);
  auto wbuf = kernel_.MapAnonymous(p, hw::kPageSize, hw::PageFlags{.writable = true});
  auto rbuf = kernel_.MapAnonymous(p, hw::kPageSize, hw::PageFlags{.writable = true});
  ASSERT_TRUE(wbuf.ok() && rbuf.ok());
  std::string got;
  kernel_.Spawn(p, "writer", [&, pipe](Env env) -> sim::Task<void> {
    const std::string msg = "through the kernel ring";
    EXPECT_TRUE(env.kernel->UserWrite(*env.self, wbuf.value(), std::as_bytes(std::span(msg))).ok());
    auto n = co_await pipe->Write(env, wbuf.value(), msg.size());
    EXPECT_TRUE(n.ok());
    EXPECT_EQ(n.value(), msg.size());
    pipe->CloseWriteEnd();
  });
  kernel_.Spawn(p, "reader", [&, pipe](Env env) -> sim::Task<void> {
    std::vector<char> buf(64);
    auto n = co_await pipe->Read(env, rbuf.value(), buf.size());
    EXPECT_TRUE(n.ok());
    EXPECT_TRUE(
        env.kernel->UserRead(*env.self, rbuf.value(), std::as_writable_bytes(std::span(buf))).ok());
    got.assign(buf.data(), n.value());
  });
  kernel_.Run();
  EXPECT_EQ(got, "through the kernel ring");
}

TEST_F(OsTest, PipeReaderSeesEofAfterClose) {
  Process& p = kernel_.CreateProcess("p");
  auto pipe = std::make_shared<Pipe>(kernel_);
  auto buf = kernel_.MapAnonymous(p, hw::kPageSize, hw::PageFlags{.writable = true});
  ASSERT_TRUE(buf.ok());
  bool eof = false;
  kernel_.Spawn(p, "reader", [&, pipe](Env env) -> sim::Task<void> {
    auto n = co_await pipe->Read(env, buf.value(), 16);
    EXPECT_TRUE(n.ok());
    eof = n.value() == 0;
  });
  kernel_.Spawn(p, "closer", [&, pipe](Env env) -> sim::Task<void> {
    co_await env.kernel->Sleep(env, Duration::Micros(50));
    pipe->CloseWriteEnd();
  });
  kernel_.Run();
  EXPECT_TRUE(eof);
}

TEST_F(OsTest, PipeBlocksWriterWhenFull) {
  Process& p = kernel_.CreateProcess("p");
  auto pipe = std::make_shared<Pipe>(kernel_);
  uint64_t total = Pipe::kCapacity + 4096;  // forces one blocking round
  auto wbuf = kernel_.MapAnonymous(p, total, hw::PageFlags{.writable = true});
  auto rbuf = kernel_.MapAnonymous(p, total, hw::PageFlags{.writable = true});
  ASSERT_TRUE(wbuf.ok() && rbuf.ok());
  uint64_t read_total = 0;
  kernel_.Spawn(p, "writer", [&, pipe](Env env) -> sim::Task<void> {
    auto n = co_await pipe->Write(env, wbuf.value(), total);
    EXPECT_TRUE(n.ok());
    EXPECT_EQ(n.value(), total);
    pipe->CloseWriteEnd();
  });
  kernel_.Spawn(p, "reader", [&, pipe](Env env) -> sim::Task<void> {
    co_await env.kernel->Sleep(env, Duration::Micros(100));  // let the pipe fill
    while (true) {
      auto n = co_await pipe->Read(env, rbuf.value(), 16384);
      EXPECT_TRUE(n.ok());
      if (n.value() == 0) {
        break;
      }
      read_total += n.value();
    }
  });
  kernel_.Run();
  EXPECT_EQ(read_total, total);
}

// --- UNIX sockets ---

TEST_F(OsTest, SocketPairRoundTrip) {
  Process& p = kernel_.CreateProcess("p");
  auto [client, server] = UnixStreamCore::CreatePair(kernel_);
  auto cbuf = kernel_.MapAnonymous(p, hw::kPageSize, hw::PageFlags{.writable = true});
  auto sbuf = kernel_.MapAnonymous(p, hw::kPageSize, hw::PageFlags{.writable = true});
  ASSERT_TRUE(cbuf.ok() && sbuf.ok());
  std::string reply;
  kernel_.Spawn(p, "client", [&, client = client](Env env) -> sim::Task<void> {
    const std::string msg = "ping";
    EXPECT_TRUE(env.kernel->UserWrite(*env.self, cbuf.value(), std::as_bytes(std::span(msg))).ok());
    EXPECT_TRUE((co_await client->Send(env, cbuf.value(), msg.size())).ok());
    auto s = co_await client->RecvExact(env, cbuf.value(), 4);
    EXPECT_TRUE(s.ok());
    std::vector<char> out(4);
    EXPECT_TRUE(
        env.kernel->UserRead(*env.self, cbuf.value(), std::as_writable_bytes(std::span(out))).ok());
    reply.assign(out.begin(), out.end());
  });
  kernel_.Spawn(p, "server", [&, server = server](Env env) -> sim::Task<void> {
    EXPECT_TRUE((co_await server->RecvExact(env, sbuf.value(), 4)).ok());
    std::vector<char> in(4);
    EXPECT_TRUE(
        env.kernel->UserRead(*env.self, sbuf.value(), std::as_writable_bytes(std::span(in))).ok());
    EXPECT_EQ(std::string(in.begin(), in.end()), "ping");
    const std::string msg = "pong";
    EXPECT_TRUE(env.kernel->UserWrite(*env.self, sbuf.value(), std::as_bytes(std::span(msg))).ok());
    EXPECT_TRUE((co_await server->Send(env, sbuf.value(), msg.size())).ok());
  });
  kernel_.Run();
  EXPECT_EQ(reply, "pong");
}

TEST_F(OsTest, SocketPassesKernelObjects) {
  Process& p = kernel_.CreateProcess("p");
  auto [a, b] = UnixStreamCore::CreatePair(kernel_);
  auto buf = kernel_.MapAnonymous(p, hw::kPageSize, hw::PageFlags{.writable = true});
  ASSERT_TRUE(buf.ok());
  std::string received_type;
  kernel_.Spawn(p, "sender", [&, a = a](Env env) -> sim::Task<void> {
    auto sem = std::make_shared<Semaphore>(3);
    std::vector<std::shared_ptr<KernelObject>> handles{sem};
    EXPECT_TRUE((co_await a->Send(env, buf.value(), 1, std::move(handles))).ok());
  });
  kernel_.Spawn(p, "receiver", [&, b = b](Env env) -> sim::Task<void> {
    std::vector<std::shared_ptr<KernelObject>> handles;
    auto n = co_await b->Recv(env, buf.value(), 1, &handles);
    EXPECT_TRUE(n.ok());
    EXPECT_EQ(handles.size(), 1u);
    received_type = handles[0]->type_name();
    auto sem = std::dynamic_pointer_cast<Semaphore>(handles[0]);
    EXPECT_NE(sem, nullptr);
    EXPECT_EQ(sem->count(), 3);
  });
  kernel_.Run();
  EXPECT_EQ(received_type, "semaphore");
}

TEST_F(OsTest, UnixSendOnFullBufferFailsWhenPeerCloses) {
  Process& p = kernel_.CreateProcess("p");
  auto [a, b] = UnixStreamCore::CreatePair(kernel_);
  constexpr uint64_t kLen = UnixStreamCore::kBufSize + 4096;  // parks for room
  auto buf = kernel_.MapAnonymous(p, kLen, hw::PageFlags{.writable = true});
  ASSERT_TRUE(buf.ok());
  std::optional<base::ErrorCode> sent;
  kernel_.Spawn(p, "writer", [&, a = a](Env env) -> sim::Task<void> {
    auto n = co_await a->Send(env, buf.value(), kLen);
    sent = n.ok() ? base::ErrorCode::kOk : n.code();
  });
  kernel_.Spawn(p, "closer", [&, b = b](Env env) -> sim::Task<void> {
    co_await env.kernel->Sleep(env, Duration::Micros(500));
    b->Close();
  });
  kernel_.Run();
  ASSERT_TRUE(sent.has_value()) << "the writer is still parked after its peer closed";
  EXPECT_EQ(*sent, base::ErrorCode::kBrokenChannel);
}

// A kFutexPark delay rule lengthens a semaphore's futex entry by exactly the
// rule's delay: the waiter spends that much more kernel time before it
// parks, and still wakes when the post lands.
TEST(OsFaultTest, FutexParkDelayRuleDelaysSemaphoreParkExactly) {
  constexpr Duration kDelay = Duration::Nanos(700);
  struct Run {
    Duration kernel;
    sim::Time end;
    uint64_t fires = 0;
  };
  auto run = [](bool armed) {
    hw::Machine machine(4);
    codoms::Codoms codoms(machine);
    Kernel kernel(machine, codoms);
    if (armed) {
      auto plan = fault::Plan::Parse("rule chan/futex_park delay at=1 delay_ns=700\n");
      EXPECT_TRUE(plan.ok());
      fault::Global().Arm(plan.value(), &machine.events());
    }
    Process& p = kernel.CreateProcess("p");
    auto sem = std::make_shared<Semaphore>(0);
    kernel.Spawn(p, "waiter", [sem](Env env) -> sim::Task<void> {
      EXPECT_TRUE((co_await sem->WaitUntil(env)).ok());
    }, 0);
    kernel.Spawn(p, "poster", [sem](Env env) -> sim::Task<void> {
      co_await env.kernel->Sleep(env, Duration::Micros(20));
      co_await sem->Post(env);
    }, 1);
    kernel.Run();
    Run r{kernel.accounting().Summed()[TimeCat::kKernel], kernel.now(),
          fault::Global().fire_count()};
    fault::Global().Disarm();
    return r;
  };
  const Run base = run(false);
  const Run delayed = run(true);
  EXPECT_EQ(delayed.fires, 1u);
  EXPECT_EQ(delayed.kernel - base.kernel, kDelay);
  EXPECT_EQ(delayed.end, base.end);
}

TEST_F(OsTest, NamedListenerAcceptsConnections) {
  Process& p = kernel_.CreateProcess("p");
  auto listener = std::make_shared<UnixListener>(kernel_);
  ASSERT_TRUE(kernel_.BindPath("/tmp/svc.sock", listener).ok());
  auto buf = kernel_.MapAnonymous(p, hw::kPageSize, hw::PageFlags{.writable = true});
  ASSERT_TRUE(buf.ok());
  bool served = false;
  kernel_.Spawn(p, "server", [&, listener](Env env) -> sim::Task<void> {
    auto conn = co_await listener->Accept(env);
    EXPECT_TRUE(conn.ok());
    EXPECT_TRUE((co_await conn.value()->RecvExact(env, buf.value(), 5)).ok());
    served = true;
  });
  kernel_.Spawn(p, "client", [&](Env env) -> sim::Task<void> {
    auto conn = co_await UnixListener::Connect(env, "/tmp/svc.sock");
    EXPECT_TRUE(conn.ok());
    EXPECT_TRUE((co_await conn.value()->Send(env, buf.value(), 5)).ok());
  });
  kernel_.Run();
  EXPECT_TRUE(served);
}

TEST_F(OsTest, ConnectToUnboundPathFails) {
  Process& p = kernel_.CreateProcess("p");
  base::ErrorCode code = base::ErrorCode::kOk;
  kernel_.Spawn(p, "client", [&](Env env) -> sim::Task<void> {
    auto conn = co_await UnixListener::Connect(env, "/nope");
    code = conn.code();
  });
  kernel_.Run();
  EXPECT_EQ(code, base::ErrorCode::kNotFound);
}

// --- User memory & protection integration ---

TEST_F(OsTest, CrossProcessMemoryIsIsolatedByDefault) {
  Process& p1 = kernel_.CreateProcess("p1");
  Process& p2 = kernel_.CreateProcess("p2");
  auto m1 = kernel_.MapAnonymous(p1, hw::kPageSize, hw::PageFlags{.writable = true});
  ASSERT_TRUE(m1.ok());
  // p2's thread cannot touch p1's mapping: different page table => unmapped.
  base::ErrorCode code = base::ErrorCode::kOk;
  kernel_.Spawn(p2, "t", [&](Env env) -> sim::Task<void> {
    auto s = co_await env.kernel->TouchUser(env, m1.value(), 8, hw::AccessType::kRead);
    code = s.code();
  });
  kernel_.Run();
  EXPECT_EQ(code, base::ErrorCode::kFault);
}

TEST_F(OsTest, SharedPageTableStillIsolatedByDomainTags) {
  // Two dIPC-style processes in one page table: CODOMs tags isolate them.
  hw::PageTable& shared = machine_.CreatePageTable();
  hw::DomainTag d1 = codoms_.apl_table().AllocateTag();
  hw::DomainTag d2 = codoms_.apl_table().AllocateTag();
  Process& p1 = kernel_.CreateProcessIn("p1", shared, d1);
  Process& p2 = kernel_.CreateProcessIn("p2", shared, d2);
  auto m1 = kernel_.MapAnonymous(p1, hw::kPageSize, hw::PageFlags{.writable = true});
  ASSERT_TRUE(m1.ok());
  base::ErrorCode code = base::ErrorCode::kOk;
  kernel_.Spawn(p2, "t", [&](Env env) -> sim::Task<void> {
    auto s = co_await env.kernel->TouchUser(env, m1.value(), 8, hw::AccessType::kRead);
    code = s.code();
  });
  kernel_.Run();
  EXPECT_EQ(code, base::ErrorCode::kFault);
  // With an APL grant, the same access succeeds.
  codoms_.apl_table().Grant(d2, d1, codoms::Perm::kRead);
  code = base::ErrorCode::kOk;
  kernel_.Spawn(p2, "t2", [&](Env env) -> sim::Task<void> {
    auto s = co_await env.kernel->TouchUser(env, m1.value(), 8, hw::AccessType::kRead);
    code = s.code();
  });
  kernel_.Run();
  EXPECT_EQ(code, base::ErrorCode::kOk);
}

TEST_F(OsTest, NoPageTableSwitchCostBetweenSharedPtProcesses) {
  hw::PageTable& shared = machine_.CreatePageTable();
  hw::DomainTag d1 = codoms_.apl_table().AllocateTag();
  hw::DomainTag d2 = codoms_.apl_table().AllocateTag();
  Process& p1 = kernel_.CreateProcessIn("p1", shared, d1);
  Process& p2 = kernel_.CreateProcessIn("p2", shared, d2);
  auto body = [](Env env) -> sim::Task<void> {
    co_await env.kernel->Spend(*env.self, Duration::Micros(1), TimeCat::kUser);
  };
  kernel_.Spawn(p1, "t1", body, /*pin_cpu=*/0);
  kernel_.Spawn(p2, "t2", body, /*pin_cpu=*/0);
  kernel_.Run();
  EXPECT_EQ(kernel_.accounting().cpu(0)[TimeCat::kPageTableSwitch], Duration::Zero());
}

TEST_F(OsTest, PageTableSwitchCostBetweenPrivateProcesses) {
  Process& p1 = kernel_.CreateProcess("p1");
  Process& p2 = kernel_.CreateProcess("p2");
  auto body = [](Env env) -> sim::Task<void> {
    co_await env.kernel->Spend(*env.self, Duration::Micros(1), TimeCat::kUser);
  };
  kernel_.Spawn(p1, "t1", body, /*pin_cpu=*/0);
  kernel_.Spawn(p2, "t2", body, /*pin_cpu=*/0);
  kernel_.Run();
  EXPECT_GT(kernel_.accounting().cpu(0)[TimeCat::kPageTableSwitch], Duration::Zero());
}

TEST_F(OsTest, KillThreadNeverRunsAgain) {
  Process& p = kernel_.CreateProcess("p");
  auto sem = std::make_shared<Semaphore>(0);
  int after_wait = 0;
  Thread& victim = kernel_.Spawn(p, "victim", [&, sem](Env env) -> sim::Task<void> {
    co_await sem->Wait(env);
    ++after_wait;
  });
  kernel_.Spawn(p, "killer", [&, sem](Env env) -> sim::Task<void> {
    co_await env.kernel->Sleep(env, Duration::Micros(10));
    env.kernel->KillThread(victim);
    co_await sem->Post(env);  // wake would go to the dead thread
  });
  kernel_.Run();
  EXPECT_EQ(after_wait, 0);
  EXPECT_EQ(victim.state(), ThreadState::kDead);
}

// Conservation property: across any run, per-CPU accounted time equals the
// busy+idle wall time the scheduler produced (no time leaks).
TEST_F(OsTest, AccountingConservation) {
  Process& p = kernel_.CreateProcess("p");
  auto sem = std::make_shared<Semaphore>(0);
  for (int i = 0; i < 6; ++i) {
    kernel_.Spawn(p, "w" + std::to_string(i), [sem, i](Env env) -> sim::Task<void> {
      co_await env.kernel->Spend(*env.self, Duration::Micros(20 + i), TimeCat::kUser);
      co_await sem->Post(env);
      co_await sem->Wait(env);
      co_await env.kernel->Spend(*env.self, Duration::Micros(5), TimeCat::kUser);
    });
  }
  kernel_.Spawn(p, "releaser", [sem](Env env) -> sim::Task<void> {
    for (int i = 0; i < 6; ++i) {
      co_await sem->Wait(env);
    }
    for (int i = 0; i < 6; ++i) {
      co_await sem->Post(env);
    }
  });
  kernel_.Run();
  // Each CPU's categories must sum to <= wall time (dispatch latencies like
  // IPI delivery are idle-absorbed; nothing may exceed wall time).
  for (uint32_t c = 0; c < 4; ++c) {
    double total = kernel_.accounting().cpu(c).Total().nanos();
    EXPECT_LE(total, kernel_.now().nanos() * 1.0001);
  }
}

}  // namespace
}  // namespace dipc::os
