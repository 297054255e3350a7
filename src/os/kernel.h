// The simulated OS kernel: scheduling, syscall costs, user-memory access
// (through the CODOMs checks), and process/thread lifecycle.
//
// Models a Linux-3.9-era kernel at the fidelity the paper's evaluation
// needs: per-CPU run queues, context/page-table switch costs, IPIs and the
// idle loop, the syscall entry/dispatch path, and per-category time
// accounting (Figs. 1 and 2). Threads are coroutines; every blocking
// operation is a co_await.
#ifndef DIPC_OS_KERNEL_H_
#define DIPC_OS_KERNEL_H_

#include <coroutine>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/check.h"
#include "base/result.h"
#include "codoms/codoms.h"
#include "hw/machine.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "os/accounting.h"
#include "os/process.h"
#include "os/thread.h"
#include "sim/task.h"

namespace dipc::os {

class WaitQueue;

class Kernel {
 public:
  Kernel(hw::Machine& machine, codoms::Codoms& codoms);
  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;
  ~Kernel();

  hw::Machine& machine() { return machine_; }
  codoms::Codoms& codoms() { return codoms_; }
  TimeAccounting& accounting() { return accounting_; }
  const hw::CostModel& costs() const { return machine_.costs(); }
  sim::Time now() const { return machine_.events().now(); }

  // ---- Processes and threads ----

  // Creates a process with a private page table and a fresh default domain.
  Process& CreateProcess(std::string name);
  // Creates a process inside an existing (shared) page table; dIPC uses this
  // for global-VAS processes (§6.1.3).
  Process& CreateProcessIn(std::string name, hw::PageTable& pt, hw::DomainTag default_domain);

  // Spawns a thread; it becomes runnable immediately. `pin_cpu` >= 0 pins it.
  Thread& Spawn(Process& proc, std::string name, ThreadBody body, int pin_cpu = -1);

  // Waits until `target` exits. The joiner parks on the target's own joiner
  // list, not an os::Futex: the target's exit path wakes it, a
  // kernel-internal event with no user-level word to wait on.
  sim::Task<void> Join(Env env, Thread& target);

  // Kills a blocked/runnable thread (it never runs again). Running threads
  // can only kill themselves by returning from their body.
  void KillThread(Thread& t);

  Thread* running_on(hw::CpuId cpu) const { return cpus_[cpu].running; }
  uint64_t context_switches() const { return context_switches_; }

  // ---- Time ----

  // Charges `d` to `cat` (and to the thread's current domain) and advances
  // virtual time to now+d. The CPU stays the thread's throughout. Zero
  // durations don't suspend. When the run loop has nothing due at or before
  // now+d, the Spend completes in place (EventQueue::TryAdvance): the clock
  // moves and the coroutine continues without a heap entry or a resume.
  // Otherwise it suspends until an event resumes it at now+d.
  struct SpendAwaiter {
    Kernel* kernel;
    Thread* thread;
    sim::Duration d;
    bool await_ready() const {
      return d <= sim::Duration::Zero() || kernel->machine_.events().TryAdvance(d);
    }
    void await_suspend(std::coroutine_handle<> h);
    void await_resume() {}
  };
  SpendAwaiter Spend(Thread& t, sim::Duration d, TimeCat cat) {
    return SpendAs(t, d, BillOf(cat));
  }
  // Bills `d` that `t` spent parked on a futex to its domain's futex_wait
  // time. Blocked time lies in no Fig. 2 bucket and advances no clock.
  void ChargeBlocked(Thread& t, sim::Duration d) { ChargeOnly(t, d, Bill::kBlocked); }
  // Threads parked on any futex ("os/sched/futex_waiters"), resolved on the
  // first park.
  obs::Gauge* futex_waiters() {
    if (m_futex_waiters_ == nullptr) {
      m_futex_waiters_ = obs::Registry::Default().Get(obs::kSchedFutexWaiters);
    }
    return m_futex_waiters_;
  }
  // Charges each (cat, d) pair, suspending once for the summed duration.
  // Variadic rather than initializer_list: init-list temporaries in co_await
  // expressions trip a GCC 12 coroutine bug ("array used as initializer").
  struct CatCost {
    TimeCat cat;
    sim::Duration d;
  };
  template <typename... Cs>
  SpendAwaiter SpendMany(Thread& t, Cs... items) {
    sim::Duration total;
    (
        [&] {
          ChargeOnly(t, items.d, BillOf(items.cat));
          total += items.d;
        }(),
        ...);
    return SpendAwaiter{this, &t, total};
  }

  // Syscall entry: trap into the kernel + dispatch trampoline (Fig. 2
  // blocks 2-3). Exit: swapgs+sysret (block 2).
  SpendAwaiter SyscallEnter(Env env) {
    return SpendMany(*env.self,
                     CatCost{TimeCat::kSyscallCrossing, costs().syscall_trap},
                     CatCost{TimeCat::kSyscallDispatch, costs().syscall_dispatch});
  }
  SpendAwaiter SyscallExit(Env env) {
    return Spend(*env.self, costs().sysret, TimeCat::kSyscallCrossing);
  }

  // Blocks the calling thread for `d` of virtual time (releases its CPU).
  struct SleepAwaiter {
    Kernel* kernel;
    Thread* thread;
    sim::Duration d;
    bool await_ready() const { return false; }
    void await_suspend(std::coroutine_handle<> h);
    void await_resume() {}
  };
  SleepAwaiter Sleep(Env env, sim::Duration d) { return SleepAwaiter{this, env.self, d}; }

  // ---- Scheduling ----

  // Parks the calling thread. The caller must already have registered the
  // thread with whatever will wake it (wait queue, timer...).
  struct BlockAwaiter {
    Kernel* kernel;
    Thread* thread;
    bool await_ready() const { return false; }
    void await_suspend(std::coroutine_handle<> h);
    void await_resume() {}
  };
  BlockAwaiter Block(Env env) { return BlockAwaiter{this, env.self}; }

  // Makes `t` runnable. `waker_cpu` is where the waking code runs (for IPI
  // accounting); `extra_delay` postpones dispatch (device latency etc.).
  // Returns the cost the *waker* must still spend (e.g. sending the IPI).
  [[nodiscard]] sim::Duration MakeRunnable(Thread& t, std::optional<hw::CpuId> waker_cpu,
                                           sim::Duration extra_delay = sim::Duration::Zero());

  // Scheduler-realism knob: extra wakeup-to-dispatch latency for unpinned
  // threads (runqueue delay + wake_affine imperfection a loaded Linux shows,
  // §7.4's "the scheduler temporarily imbalances the CPUs, at which point
  // synchronous IPC must wait"). Zero by default so microbenchmarks see the
  // bare-metal path; the OLTP macro model sets ~1 us for the Linux-IPC
  // configuration.
  void set_wake_latency(sim::Duration d) { wake_latency_ = d; }
  sim::Duration wake_latency() const { return wake_latency_; }

  // L4-style direct handoff: the caller blocks (it must already be parked on
  // a wait structure) and `target` is dispatched immediately on this CPU,
  // charging only `switch_cost` (plus a page-table switch if the processes
  // differ) instead of the full scheduler path.
  struct HandoffAwaiter {
    Kernel* kernel;
    Thread* from;
    Thread* target;
    sim::Duration switch_cost;
    bool await_ready() const { return false; }
    void await_suspend(std::coroutine_handle<> h);
    void await_resume() {}
  };
  HandoffAwaiter HandoffTo(Env env, Thread& target, sim::Duration switch_cost) {
    return HandoffAwaiter{this, env.self, &target, switch_cost};
  }

  // ---- User memory (checked by CODOMs, charged through TLB + caches) ----

  // Pure protection+translation+cache cost of an access, or kFault.
  base::Result<sim::Duration> UserAccessCost(Thread& t, hw::VirtAddr va, uint64_t len,
                                             hw::AccessType type);

  // Charges the cost of touching user memory (no data movement); used by
  // workload models. Faults become the returned status.
  sim::Task<base::Status> TouchUser(Env env, hw::VirtAddr va, uint64_t len, hw::AccessType type,
                                    TimeCat cat = TimeCat::kUser);

  // Kernel copy_{from,to}_user: moves real bytes between user VA and a
  // kernel physical buffer, charging both sides' cache costs to kKernel.
  sim::Task<base::Status> CopyFromUser(Env env, hw::PhysAddr kernel_pa, hw::VirtAddr user_va,
                                       uint64_t len);
  sim::Task<base::Status> CopyToUser(Env env, hw::VirtAddr user_va, hw::PhysAddr kernel_pa,
                                     uint64_t len);

  // Untimed data access (tests, loaders). Protection-checked.
  base::Status UserWrite(Thread& t, hw::VirtAddr va, std::span<const std::byte> data);
  base::Status UserRead(Thread& t, hw::VirtAddr va, std::span<std::byte> out);

  // ---- Virtual memory ----

  // Maps `len` bytes of fresh anonymous memory into the process, tagged with
  // `tag` (or the process default). Returns the base VA.
  base::Result<hw::VirtAddr> MapAnonymous(Process& proc, uint64_t len, hw::PageFlags flags,
                                          hw::DomainTag tag = hw::kInvalidDomainTag,
                                          std::optional<hw::VirtAddr> fixed_va = std::nullopt);

  // Contiguous physical buffer for kernel-internal use (pipe/socket rings).
  hw::PhysAddr AllocKernelBuffer(uint64_t len);

  // ---- Name registry (UNIX named sockets; used by RPC and dIPC entry
  // resolution, §6.2.1) ----
  base::Status BindPath(const std::string& path, std::shared_ptr<KernelObject> obj);
  std::shared_ptr<KernelObject> LookupPath(const std::string& path) const;
  void UnbindPath(const std::string& path);

  // ---- Simulation driving ----
  void Run() { machine_.events().RunUntilIdle(); }
  void RunFor(sim::Duration d) { machine_.events().RunUntil(now() + d); }

  // Closes all open idle intervals so accounting snapshots are exact
  // (normally idle is charged when the next dispatch ends the interval).
  // Call before Reset()/reading the accounting around measurement windows.
  void FlushIdleAccounting() {
    for (hw::CpuId c = 0; c < cpus_.size(); ++c) {
      CpuState& cs = cpus_[c];
      if (cs.idle) {
        Charge(c, hw::kInvalidDomainTag, BillOf(TimeCat::kIdle), now() - cs.idle_since);
        cs.idle_since = now();
      }
    }
  }

 private:
  friend class WaitQueue;

  // What one charge is billed as. Values below kNumTimeCats are the TimeCat
  // buckets themselves; the two after them are the charges the per-domain
  // books keep apart from the Fig. 2 buckets.
  enum class Bill : uint8_t {
    kCopy = kNumTimeCats,  // copy_{from,to}_user: Fig. 2 kernel, domain "copy"
    kBlocked,              // a futex park: no Fig. 2 bucket, domain "futex_wait"
  };
  static constexpr Bill BillOf(TimeCat cat) { return static_cast<Bill>(cat); }

  // The one charge path for simulated time: adds `d` on `cpu` to `bill`'s
  // Fig. 2 bucket and to the time_ps counter of `bill`'s kind for `domain`.
  void Charge(hw::CpuId cpu, hw::DomainTag domain, Bill bill, sim::Duration d);
  void ChargeOnly(Thread& t, sim::Duration d, Bill bill) {
    Charge(t.last_cpu(), t.cap_ctx().current_domain, bill, d);
  }
  SpendAwaiter SpendAs(Thread& t, sim::Duration d, Bill bill) {
    ChargeOnly(t, d, bill);
    return SpendAwaiter{this, &t, d};
  }

  struct CpuState {
    Thread* running = nullptr;
    std::deque<Thread*> runq;
    Thread* dispatch_pending = nullptr;  // due to be dispatched here by an event
    bool idle = true;
    sim::Time idle_since;
    Process* last_process = nullptr;  // for page-table/current switch costs
  };

  // The one walk of a user-memory access: a single CheckDataAccess of
  // [va, va+len) for `type`, then fn(pa, done, chunk) for each page chunk in
  // order (`done` bytes precede it). Returns the check's cost or its fault.
  template <typename Fn>
  base::Result<sim::Duration> WalkUser(Thread& t, hw::VirtAddr va, uint64_t len,
                                       hw::AccessType type, Fn fn);

  hw::CpuId PickCpu(const Thread& t) const;
  // Publishes `cpu`'s run-queue depth (gauge + trace instant) after a
  // queue change — the chaos-forensics signal for "where work piled up".
  void NoteRunqDepth(hw::CpuId cpu);
  // Called when the running thread on `cpu` stops running (block/exit).
  void CpuReleased(hw::CpuId cpu);
  // Dispatches `t` on the idle `cpu` after `lat`; one at a time per CPU.
  void ScheduleDispatch(hw::CpuId cpu, Thread& t, sim::Duration lat);
  // Dispatches `t` on `cpu` after `extra` cost; standard_path charges the
  // full scheduler cost, otherwise only `extra` (direct handoff).
  void Dispatch(hw::CpuId cpu, Thread& t, sim::Duration extra, bool standard_path);
  void ResumeThread(Thread& t);
  void OnThreadExit(Thread& t);

  hw::Machine& machine_;
  codoms::Codoms& codoms_;
  TimeAccounting accounting_;
  std::vector<CpuState> cpus_;
  std::vector<std::unique_ptr<Process>> processes_;
  std::vector<std::unique_ptr<Thread>> threads_;
  std::unordered_map<std::string, std::shared_ptr<KernelObject>> name_registry_;
  Pid next_pid_ = 1;
  Tid next_tid_ = 1;
  uint64_t context_switches_ = 0;
  sim::Duration wake_latency_;
  // Scheduler observability handles (registered in the ctor): cross-CPU
  // dispatches of already-running threads, and per-CPU run-queue depth.
  obs::Counter* m_migrations_ = nullptr;
  std::vector<obs::Gauge*> m_runq_depth_;
  obs::Gauge* m_futex_waiters_ = nullptr;
  // "domain/<tag>/time_ps/<kind>" handles at tag * kinds + kind, resolved
  // on a domain's first charge of that kind (tags are dense and small, as
  // AplTable::AllocateTag hands them out).
  std::vector<obs::Counter*> m_domain_time_;
};

// A FIFO wait queue of threads; the building block of every blocking
// primitive. Waking returns the thread so the caller can MakeRunnable it
// (and account wake costs at the call site).
class WaitQueue {
 public:
  // co_await wq.Wait(env): parks the calling thread on this queue.
  struct WaitAwaiter {
    WaitQueue* queue;
    Kernel* kernel;
    Thread* thread;
    bool await_ready() const { return false; }
    void await_suspend(std::coroutine_handle<> h);
    void await_resume() {}
  };
  WaitAwaiter Wait(Env env) { return WaitAwaiter{this, env.kernel, env.self}; }

  // Raw enqueue without parking; pair with Kernel::Block or HandoffTo when
  // the caller must do something between queueing and suspending (e.g. L4's
  // reply-and-wait donates its time slice to the caller *after* queueing).
  void Enqueue(Thread* t) { waiters_.push_back(t); }

  Thread* WakeOneThread() {
    while (!waiters_.empty()) {
      Thread* t = waiters_.front();
      waiters_.pop_front();
      if (t->state() != ThreadState::kDead) {
        return t;
      }
    }
    return nullptr;
  }

  // Kernel-side wake of every parked thread (close, fail and death paths).
  // `waker` is the CPU the waking code runs on, if any; no waker cost is
  // paid.
  void WakeAll(Kernel& kernel, std::optional<hw::CpuId> waker) {
    while (Thread* t = WakeOneThread()) {
      (void)kernel.MakeRunnable(*t, waker);
    }
  }

  bool Remove(Thread* t) {
    for (auto it = waiters_.begin(); it != waiters_.end(); ++it) {
      if (*it == t) {
        waiters_.erase(it);
        return true;
      }
    }
    return false;
  }

  bool empty() const { return waiters_.empty(); }
  size_t size() const { return waiters_.size(); }

 private:
  std::deque<Thread*> waiters_;
};

}  // namespace dipc::os

#endif  // DIPC_OS_KERNEL_H_
