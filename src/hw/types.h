// Architectural base types shared by the machine model and the CODOMs layer.
#ifndef DIPC_HW_TYPES_H_
#define DIPC_HW_TYPES_H_

#include <cstdint>

namespace dipc::hw {

using VirtAddr = uint64_t;
using PhysAddr = uint64_t;
using CpuId = uint32_t;

inline constexpr uint64_t kPageSize = 4096;
inline constexpr uint64_t kPageShift = 12;
inline constexpr uint64_t kCacheLineSize = 64;
// Frame numbers are dense (a bump allocator hands them out), so per-frame
// state lives in tables indexed by frame number. A frame number at or above
// this (64 GiB of simulated memory) is a wild address, not a table index.
inline constexpr uint64_t kMaxFrames = uint64_t{1} << 24;

constexpr uint64_t PageNumber(VirtAddr va) { return va >> kPageShift; }
constexpr uint64_t PageOffset(VirtAddr va) { return va & (kPageSize - 1); }
constexpr VirtAddr PageBase(VirtAddr va) { return va & ~(kPageSize - 1); }
constexpr VirtAddr PageRoundUp(VirtAddr va) { return (va + kPageSize - 1) & ~(kPageSize - 1); }

// CODOMs per-page domain tag. Tag 0 is reserved/invalid; the page table keeps
// one tag per page (§4.1 of the paper).
using DomainTag = uint32_t;
inline constexpr DomainTag kInvalidDomainTag = 0;

enum class AccessType : uint8_t {
  kRead,
  kWrite,
  kExecute,
};

}  // namespace dipc::hw

#endif  // DIPC_HW_TYPES_H_
