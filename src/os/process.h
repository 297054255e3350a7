// Processes: the OS unit of isolation.
//
// A regular process owns a private page table; dIPC-enabled processes share
// the global-VAS page table and are distinguished by their CODOMs domain
// tags instead (§6.1.3).
#ifndef DIPC_OS_PROCESS_H_
#define DIPC_OS_PROCESS_H_

#include <cstdint>
#include <string>

#include "hw/page_table.h"
#include "hw/types.h"
#include "os/objects.h"

namespace dipc::os {

using Pid = uint32_t;

class Process {
 public:
  Process(Pid pid, std::string name, hw::PageTable& pt, hw::DomainTag default_domain)
      : pid_(pid), name_(std::move(name)), page_table_(&pt), default_domain_(default_domain) {}
  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  Pid pid() const { return pid_; }
  const std::string& name() const { return name_; }

  hw::PageTable& page_table() { return *page_table_; }
  const hw::PageTable& page_table() const { return *page_table_; }
  void set_page_table(hw::PageTable& pt) { page_table_ = &pt; }

  // Every process has a default CODOMs domain; regular mmap/brk pages land
  // there (§5.2.2).
  hw::DomainTag default_domain() const { return default_domain_; }
  void set_default_domain(hw::DomainTag tag) { default_domain_ = tag; }

  FdTable& fds() { return fds_; }

  bool dipc_enabled() const { return dipc_enabled_; }
  void set_dipc_enabled(bool on) { dipc_enabled_ = on; }

  bool alive() const { return alive_; }
  void MarkDead() { alive_ = false; }

  // Simple per-process bump allocator for private address spaces. dIPC
  // processes sub-allocate inside their 1 GB global-VAS block: the dIPC
  // runtime rebases this allocator to the block (§6.1.3 phase 2).
  hw::VirtAddr AllocVa(uint64_t size) {
    hw::VirtAddr va = next_va_;
    next_va_ = hw::PageRoundUp(next_va_ + size);
    return va;
  }
  void SetVaBase(hw::VirtAddr base) { next_va_ = base; }
  hw::VirtAddr va_cursor() const { return next_va_; }

 private:
  Pid pid_;
  std::string name_;
  hw::PageTable* page_table_;
  hw::DomainTag default_domain_;
  FdTable fds_;
  bool dipc_enabled_ = false;
  bool alive_ = true;
  hw::VirtAddr next_va_ = 0x10000;
};

}  // namespace dipc::os

#endif  // DIPC_OS_PROCESS_H_
