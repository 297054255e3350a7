// Two-level TLB model (per CPU).
//
// Used to charge page-walk latency on first touch and to make page-table
// switches (CR3 writes) cost more for large-footprint processes — one of the
// second-order overheads §2.2 attributes to process switching.
#ifndef DIPC_HW_TLB_MODEL_H_
#define DIPC_HW_TLB_MODEL_H_

#include <cstdint>

#include "hw/cache_model.h"
#include "hw/cost_model.h"
#include "hw/types.h"

namespace dipc::hw {

class TlbModel {
 public:
  explicit TlbModel(const CostModel& costs)
      : costs_(costs), l1_(64 * kPageSize, 4, kPageSize), l2_(1536 * kPageSize, 6, kPageSize) {}

  // Charges translation cost for the page containing `va` in address space
  // `asid`. Translations are tagged by asid, so a page-table switch does not
  // have to flush. PCID-less Linux would flush on every switch; Flush()
  // models that, but nothing calls it, so no switch pays for a flush.
  //
  // Known fault: TagArray takes its set index from the key's low bits, and
  // both levels have fewer than 2^16 sets (16 and 256), so the set index is
  // the asid's low bits alone. Every page of one address space competes for
  // a single 4-way L1 set and a single 6-way L2 set, 10 entries in all, and
  // dIPC domains, which share one page table, share those 10 entries too.
  // Fixing the key changes every simulated row that translates.
  sim::Duration Translate(VirtAddr va, uint64_t asid) {
    uint64_t key = (PageNumber(va) << 16) ^ asid;
    if (l1_.Touch(key)) {
      return sim::Duration::Zero();
    }
    if (l2_.Touch(key)) {
      return costs_.Cycles(7);
    }
    ++walks_;
    return costs_.tlb_walk;
  }

  // Full flush (non-PCID CR3 write).
  void Flush() {
    l1_.InvalidateAll();
    l2_.InvalidateAll();
  }

  uint64_t walks() const { return walks_; }

 private:
  const CostModel& costs_;
  TagArray l1_;
  TagArray l2_;
  uint64_t walks_ = 0;
};

}  // namespace dipc::hw

#endif  // DIPC_HW_TLB_MODEL_H_
