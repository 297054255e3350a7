// Page tables with the CODOMs extensions.
//
// CODOMs extends each PTE with (§4):
//   - a per-page domain tag, associating the page with a protection domain;
//   - a privileged-capability bit, marking code pages allowed to execute
//     privileged instructions (eliminating syscall-based privilege switches);
//   - a capability-storage bit, marking pages where capabilities may be
//     stored/loaded with integrity guaranteed by the hardware.
#ifndef DIPC_HW_PAGE_TABLE_H_
#define DIPC_HW_PAGE_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <utility>

#include "base/result.h"
#include "hw/types.h"

namespace dipc::hw {

struct PageFlags {
  bool writable = false;
  bool executable = false;
  bool user = true;
  // CODOMs extensions.
  bool priv_cap = false;     // may execute privileged instructions
  bool cap_storage = false;  // may hold capabilities in memory
};

struct Pte {
  uint64_t frame = 0;
  PageFlags flags;
  DomainTag tag = kInvalidDomainTag;
};

// A (single-level, map-backed) page table. An AddressSpaceId stands in for
// the CR3 value; dIPC-enabled processes share one page table (§6.1.3).
class PageTable {
 public:
  using Id = uint64_t;

  explicit PageTable(Id id) : id_(id) {}
  PageTable(const PageTable&) = delete;
  PageTable& operator=(const PageTable&) = delete;

  Id id() const { return id_; }

  // Maps one page. Fails if already mapped.
  base::Status MapPage(VirtAddr va, uint64_t frame, PageFlags flags, DomainTag tag) {
    auto [it, inserted] = ptes_.emplace(PageNumber(va), Pte{frame, flags, tag});
    (void)it;
    return inserted ? base::Status::Ok() : base::ErrorCode::kAlreadyExists;
  }

  base::Status UnmapPage(VirtAddr va) {
    const uint64_t page = PageNumber(va);
    if (memo_.page == page) {
      memo_ = MemoEntry{};
    }
    return ptes_.erase(page) == 1 ? base::Status::Ok() : base::ErrorCode::kNotFound;
  }

  // The last PTE found is memoized, so the page of a recent access is found
  // again without descending the tree. Map nodes are stable across MapPage;
  // only UnmapPage drops one, and it clears the memo if it names the page.
  const Pte* Lookup(VirtAddr va) const {
    const uint64_t page = PageNumber(va);
    if (memo_.page != page) {
      auto it = ptes_.find(page);
      if (it == ptes_.end()) {
        return nullptr;
      }
      memo_ = MemoEntry{page, &it->second};
    }
    return memo_.pte;
  }

  // Mutable through a non-const table, so the cast is sound.
  Pte* LookupMut(VirtAddr va) { return const_cast<Pte*>(std::as_const(*this).Lookup(va)); }

  // Re-tags one page (dom_remap; §5.2.2 moves pages between domains).
  base::Status SetTag(VirtAddr va, DomainTag tag) {
    Pte* pte = LookupMut(va);
    if (pte == nullptr) {
      return base::ErrorCode::kNotFound;
    }
    pte->tag = tag;
    return base::Status::Ok();
  }

  // Translates a virtual address; nullopt if unmapped.
  std::optional<PhysAddr> Translate(VirtAddr va) const {
    const Pte* pte = Lookup(va);
    if (pte == nullptr) {
      return std::nullopt;
    }
    return (pte->frame << kPageShift) | PageOffset(va);
  }

  uint64_t mapped_pages() const { return ptes_.size(); }

  // Iteration support (used by fork COW marking and dom_remap ranges).
  auto begin() const { return ptes_.begin(); }
  auto end() const { return ptes_.end(); }

 private:
  struct MemoEntry {
    uint64_t page = UINT64_MAX;  // no page number reaches it
    const Pte* pte = nullptr;
  };

  Id id_;
  std::map<uint64_t, Pte> ptes_;  // page number -> PTE, ordered for iteration
  mutable MemoEntry memo_;
};

}  // namespace dipc::hw

#endif  // DIPC_HW_PAGE_TABLE_H_
