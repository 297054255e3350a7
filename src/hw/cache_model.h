// Set-associative cache hierarchy model.
//
// Latency-oriented: tracks tags and coherence ownership so copies and
// cross-CPU transfers show the knees the paper's Figure 6 annotates (L1$/L2$
// sizes) and the ≠CPU penalty of moving producer-written lines to a consumer.
// It is not a full MESI simulator: we track, per line, which CPU last wrote
// it, and charge a remote-transfer latency when another CPU touches it.
//
// Layout and invariants:
//   - TagArray set counts are powers of two (the constructor checks it), so
//     a set index is `line & mask`. Every geometry in use (L1/L2/L3, both
//     TLB levels) qualifies.
//   - A set is `ways` plain tags ordered from most to least recently used:
//     valid tags first, empty ways (UINT64_MAX) last. A hit moves its tag to
//     the front; a miss shifts the set down one way, dropping the last, and
//     writes the new tag at the front. That is exact LRU with no clock: an
//     8-way set is one 64 B host line, and the 8 MiB L3 is 1 MiB of tags.
//   - Access touches each level at most once per line, and a line that
//     another CPU dirtied is touched once in each private level (which
//     leaves it most recent and evicts nothing else) and then served as a
//     miss.
//   - Dirty ownership lives beside the tag arrays, not in them: a written
//     line stays owned by its writer after eviction from every level, so a
//     later read on another CPU still pays the remote transfer. The table is
//     page-granular, one 64-entry owner array per 4 KiB physical page, in a
//     vector indexed by page (frame) number: frames come from PhysMem's bump
//     allocator, so the numbers are dense. It grows to the highest page ever
//     written; a read beyond it finds every line clean. Access looks it up
//     once per page.
#ifndef DIPC_HW_CACHE_MODEL_H_
#define DIPC_HW_CACHE_MODEL_H_

#include <array>
#include <cstdint>
#include <vector>

#include "hw/cost_model.h"
#include "hw/types.h"
#include "sim/time.h"

namespace dipc::hw {

// One set-associative tag array with exact LRU replacement. The set count
// (size_bytes / line_size / ways) must be a power of two.
class TagArray {
 public:
  TagArray(uint64_t size_bytes, uint32_t ways, uint64_t line_size = kCacheLineSize);

  // Returns true on hit. Either way the line ends up most recently used; a
  // miss evicts the least recently used line of a full set.
  bool Touch(uint64_t line_addr);
  // True if present, without updating recency or inserting.
  bool Contains(uint64_t line_addr) const;
  void InvalidateAll();

 private:
  static constexpr uint64_t kEmpty = UINT64_MAX;

  uint64_t set_mask_;  // sets - 1
  uint32_t ways_;
  std::vector<uint64_t> tags_;  // sets * ways_, each set most recent first
};

struct CacheStats {
  uint64_t l1_hits = 0;
  uint64_t l2_hits = 0;
  uint64_t l3_hits = 0;
  uint64_t mem_accesses = 0;
  uint64_t remote_transfers = 0;
};

// The machine's cache hierarchy: private L1/L2 per CPU, shared L3.
class CacheModel {
 public:
  CacheModel(uint32_t num_cpus, const CostModel& costs);

  // Charges the latency of accessing [addr, addr+size) from `cpu`.
  // Writes mark the lines as owned-dirty by `cpu`.
  sim::Duration Access(CpuId cpu, uint64_t addr, uint64_t size, bool is_write);

  // Models cache pollution: invalidates everything in a CPU's private levels.
  void FlushPrivate(CpuId cpu);

  const CacheStats& stats() const { return stats_; }
  void ResetStats() { stats_ = CacheStats{}; }

 private:
  struct PrivateLevels {
    TagArray l1;
    TagArray l2;
  };

  static constexpr uint64_t kLinesPerPage = kPageSize / kCacheLineSize;
  // Per line of one page: the CPU that last wrote it (+1; 0 = clean/none).
  using PageOwners = std::array<uint8_t, kLinesPerPage>;

  // Owner array of physical page `page`, or nullptr if the table does not
  // reach it and `create` is false.
  PageOwners* OwnersOf(uint64_t page, bool create);

  const CostModel& costs_;
  std::vector<PrivateLevels> per_cpu_;
  TagArray l3_;
  std::vector<PageOwners> owners_;  // page number -> owner array
  CacheStats stats_;
};

}  // namespace dipc::hw

#endif  // DIPC_HW_CACHE_MODEL_H_
