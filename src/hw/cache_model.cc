#include "hw/cache_model.h"

#include <algorithm>
#include <bit>

#include "base/check.h"

namespace dipc::hw {

TagArray::TagArray(uint64_t size_bytes, uint32_t ways, uint64_t line_size) : ways_(ways) {
  DIPC_CHECK(ways > 0 && size_bytes >= ways * line_size);
  const uint64_t sets = size_bytes / line_size / ways;
  DIPC_CHECK(std::has_single_bit(sets));
  set_mask_ = sets - 1;
  tags_.assign(sets * ways_, kEmpty);
}

bool TagArray::Touch(uint64_t line_addr) {
  uint64_t* set = &tags_[(line_addr & set_mask_) * ways_];
  // Stop at the tag, at the first empty way (nothing valid follows it) or at
  // the last way, which a miss drops.
  uint32_t w = 0;
  while (w + 1 < ways_ && set[w] != line_addr && set[w] != kEmpty) {
    ++w;
  }
  const bool hit = set[w] == line_addr;
  std::copy_backward(set, set + w, set + w + 1);
  set[0] = line_addr;
  return hit;
}

bool TagArray::Contains(uint64_t line_addr) const {
  const uint64_t* set = &tags_[(line_addr & set_mask_) * ways_];
  return std::find(set, set + ways_, line_addr) != set + ways_;
}

void TagArray::InvalidateAll() { std::fill(tags_.begin(), tags_.end(), kEmpty); }

namespace {
// E3-1220 V2-like geometry: 32 KB 8-way L1D, 256 KB 8-way L2, 8 MB 16-way L3.
constexpr uint64_t kL1Size = 32 * 1024;
constexpr uint32_t kL1Ways = 8;
constexpr uint64_t kL2Size = 256 * 1024;
constexpr uint32_t kL2Ways = 8;
constexpr uint64_t kL3Size = 8 * 1024 * 1024;
constexpr uint32_t kL3Ways = 16;
}  // namespace

CacheModel::CacheModel(uint32_t num_cpus, const CostModel& costs)
    : costs_(costs), l3_(kL3Size, kL3Ways) {
  DIPC_CHECK(num_cpus < UINT8_MAX);  // owners are stored as cpu + 1 in a byte
  per_cpu_.reserve(num_cpus);
  for (uint32_t i = 0; i < num_cpus; ++i) {
    per_cpu_.push_back(PrivateLevels{TagArray(kL1Size, kL1Ways), TagArray(kL2Size, kL2Ways)});
  }
}

sim::Duration CacheModel::Access(CpuId cpu, uint64_t addr, uint64_t size, bool is_write) {
  DIPC_CHECK(cpu < per_cpu_.size());
  if (size == 0) {
    return sim::Duration::Zero();
  }
  PrivateLevels& priv = per_cpu_[cpu];
  const auto self = static_cast<uint8_t>(cpu + 1);
  CacheStats n;  // lines served by each level in this access
  uint64_t line = addr / kCacheLineSize;
  const uint64_t last = (addr + size - 1) / kCacheLineSize;
  while (line <= last) {
    const uint64_t page = line / kLinesPerPage;
    const uint64_t page_last = std::min(last, (page + 1) * kLinesPerPage - 1);
    PageOwners* owners = OwnersOf(page, is_write);
    for (; line <= page_last; ++line) {
      uint8_t* owner = owners == nullptr ? nullptr : &(*owners)[line % kLinesPerPage];
      if (owner != nullptr && *owner != 0 && *owner != self) {
        // Cross-CPU transfer: another core wrote this line since we last
        // held it. Any private copy is stale, so the line is fetched from
        // the writer and lands most recent in every level.
        priv.l1.Touch(line);
        priv.l2.Touch(line);
        l3_.Touch(line);
        ++n.remote_transfers;
        *owner = is_write ? self : 0;  // a read downgrades it to shared/clean
        continue;
      }
      if (priv.l1.Touch(line)) {
        ++n.l1_hits;
      } else if (priv.l2.Touch(line)) {
        ++n.l2_hits;  // the L1 miss above already filled it upward
      } else if (l3_.Touch(line)) {
        ++n.l3_hits;
      } else {
        ++n.mem_accesses;
      }
      if (is_write) {
        *owner = self;
      }
    }
  }
  stats_.l1_hits += n.l1_hits;
  stats_.l2_hits += n.l2_hits;
  stats_.l3_hits += n.l3_hits;
  stats_.mem_accesses += n.mem_accesses;
  stats_.remote_transfers += n.remote_transfers;
  return costs_.l1_hit * n.l1_hits + costs_.l2_hit * n.l2_hits + costs_.l3_hit * n.l3_hits +
         costs_.mem_access * n.mem_accesses + costs_.remote_transfer * n.remote_transfers;
}

CacheModel::PageOwners* CacheModel::OwnersOf(uint64_t page, bool create) {
  if (page >= owners_.size()) {
    if (!create) {
      return nullptr;
    }
    DIPC_CHECK(page < kMaxFrames);
    owners_.resize(page + 1);
  }
  return &owners_[page];
}

void CacheModel::FlushPrivate(CpuId cpu) {
  DIPC_CHECK(cpu < per_cpu_.size());
  per_cpu_[cpu].l1.InvalidateAll();
  per_cpu_[cpu].l2.InvalidateAll();
}

}  // namespace dipc::hw
