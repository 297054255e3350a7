// Unit tests for the machine model: caches, TLB, physical memory, page tables.
#include <gtest/gtest.h>

#include <cstring>
#include <list>
#include <random>
#include <string>
#include <vector>

#include "hw/cache_model.h"
#include "hw/cost_model.h"
#include "hw/machine.h"
#include "hw/page_table.h"
#include "hw/phys_mem.h"
#include "hw/tlb_model.h"

namespace dipc::hw {
namespace {

TEST(CostModel, CycleConversion) {
  CostModel cm;
  EXPECT_NEAR(cm.Cycles(31).nanos(), 10.0, 0.01);
  EXPECT_GT(cm.Cycles(1).picos(), 0);
}

TEST(TagArray, HitAfterTouch) {
  TagArray t(1024, 2, 64);  // 8 sets, 2 ways
  EXPECT_FALSE(t.Touch(1));
  EXPECT_TRUE(t.Touch(1));
  EXPECT_TRUE(t.Contains(1));
}

TEST(TagArray, LruEviction) {
  TagArray t(128, 2, 64);  // 1 set, 2 ways
  t.Touch(10);
  t.Touch(20);
  t.Touch(10);     // 10 is now MRU
  t.Touch(30);     // evicts 20
  EXPECT_TRUE(t.Contains(10));
  EXPECT_FALSE(t.Contains(20));
  EXPECT_TRUE(t.Contains(30));
}

TEST(TagArray, InvalidateAll) {
  TagArray t(1024, 2, 64);
  t.Touch(1);
  t.Touch(2);
  t.InvalidateAll();
  EXPECT_FALSE(t.Contains(1));
  EXPECT_FALSE(t.Contains(2));
}

class CacheModelTest : public ::testing::Test {
 protected:
  CostModel costs_;
  CacheModel caches_{2, costs_};
};

TEST_F(CacheModelTest, ColdMissThenHit) {
  sim::Duration cold = caches_.Access(0, 0x1000, 64, /*is_write=*/false);
  sim::Duration warm = caches_.Access(0, 0x1000, 64, /*is_write=*/false);
  EXPECT_EQ(cold, costs_.mem_access);
  EXPECT_EQ(warm, costs_.l1_hit);
}

TEST_F(CacheModelTest, CrossCpuDirtyTransferCostsMore) {
  // CPU 0 writes a line, CPU 1 reads it: must pay a remote transfer, not DRAM.
  caches_.Access(0, 0x2000, 64, /*is_write=*/true);
  sim::Duration remote = caches_.Access(1, 0x2000, 64, /*is_write=*/false);
  EXPECT_EQ(remote, costs_.remote_transfer);
  // Second read from CPU 1 is now a local hit.
  EXPECT_EQ(caches_.Access(1, 0x2000, 64, false), costs_.l1_hit);
}

TEST_F(CacheModelTest, FootprintLargerThanL1SpillsToL2) {
  // Touch 64 KB twice: second pass cannot be all L1 hits (L1 is 32 KB).
  constexpr uint64_t kFootprint = 64 * 1024;
  caches_.Access(0, 0, kFootprint, false);
  caches_.ResetStats();
  caches_.Access(0, 0, kFootprint, false);
  const CacheStats& s = caches_.stats();
  EXPECT_GT(s.l2_hits, 0u);
  EXPECT_EQ(s.mem_accesses, 0u);  // everything still fits in L2
}

TEST_F(CacheModelTest, MultiLineAccessChargesPerLine) {
  sim::Duration four_lines = caches_.Access(0, 0x8000, 256, false);
  EXPECT_EQ(four_lines, costs_.mem_access * 4);
}

TEST_F(CacheModelTest, FlushPrivateForcesRefill) {
  caches_.Access(0, 0x3000, 64, false);
  caches_.FlushPrivate(0);
  sim::Duration d = caches_.Access(0, 0x3000, 64, false);
  // After a private flush the line still lives in L3.
  EXPECT_EQ(d, costs_.l3_hit);
}

// Reads, from `cpu`, 32 lines that share `line_addr`'s set at every level
// (the stride is the L3 set count), evicting it from L1, L2 and L3.
void SweepSetOf(CacheModel& caches, CpuId cpu, uint64_t line_addr) {
  constexpr uint64_t kL3SetStride = 8192 * kCacheLineSize;  // 8 MiB / 16 ways / 64 B
  for (uint64_t k = 1; k <= 32; ++k) {
    caches.Access(cpu, line_addr + k * kL3SetStride, kCacheLineSize, /*is_write=*/false);
  }
}

TEST_F(CacheModelTest, SweepEvictsFromEveryLevel) {
  // Control for the test below: a clean line swept out of every level is
  // back to a DRAM access.
  caches_.Access(0, 0x40000, 64, /*is_write=*/false);
  SweepSetOf(caches_, 0, 0x40000);
  EXPECT_EQ(caches_.Access(1, 0x40000, 64, false), costs_.mem_access);
}

TEST_F(CacheModelTest, DirtyOwnerOutlivesEviction) {
  // CPU 0 writes a line, then its set is swept out of every level. The
  // write is still CPU 0's: CPU 1's read pays the remote transfer.
  caches_.Access(0, 0x40000, 64, /*is_write=*/true);
  SweepSetOf(caches_, 0, 0x40000);
  EXPECT_EQ(caches_.Access(1, 0x40000, 64, false), costs_.remote_transfer);
  EXPECT_EQ(caches_.stats().remote_transfers, 1u);
  // That read downgraded the line to clean: CPU 0 reading it again is an
  // L3 hit (its private copies were swept), not another remote transfer.
  EXPECT_EQ(caches_.Access(0, 0x40000, 64, false), costs_.l3_hit);
  EXPECT_EQ(caches_.stats().remote_transfers, 1u);
}

TEST_F(CacheModelTest, WriteAcrossPageBoundaryOwnsEveryLine) {
  // Two lines on each side of a page boundary.
  caches_.Access(0, 0x5000 - 128, 256, /*is_write=*/true);
  EXPECT_EQ(caches_.Access(1, 0x5000 - 128, 256, false), costs_.remote_transfer * 4);
  EXPECT_EQ(caches_.Access(1, 0x5000 + 128, 64, false), costs_.mem_access);  // never written
}

TEST_F(CacheModelTest, RemoteWriteRefreshesOnlyThatLine) {
  // CPU 1 fills one L1 set with 8 lines (the L1 set stride is 64 lines).
  constexpr uint64_t kL1SetStride = 64 * kCacheLineSize;
  constexpr uint64_t kBase = 0x100000;
  for (uint64_t k = 0; k < 8; ++k) {
    caches_.Access(1, kBase + k * kL1SetStride, 64, /*is_write=*/false);
  }
  // CPU 0 writes the first line: CPU 1's copy is stale, so its next read is
  // a remote transfer, and the read after that is back to an L1 hit.
  caches_.Access(0, kBase, 64, /*is_write=*/true);
  EXPECT_EQ(caches_.Access(1, kBase, 64, false), costs_.remote_transfer);
  EXPECT_EQ(caches_.Access(1, kBase, 64, false), costs_.l1_hit);
  // Refreshing the stale line evicted nothing else from that L1 set.
  for (uint64_t k = 1; k < 8; ++k) {
    EXPECT_EQ(caches_.Access(1, kBase + k * kL1SetStride, 64, false), costs_.l1_hit) << k;
  }
}

TEST(TagArrayDeathTest, RejectsNonPowerOfTwoSetCount) {
  EXPECT_DEATH(TagArray(3 * 2 * 64, 2, 64), "DIPC_CHECK failed");  // 3 sets
}

// Naive exact LRU: one list per set, most recent first.
class ReferenceLru {
 public:
  ReferenceLru(uint64_t sets, uint32_t ways) : sets_(sets), ways_(ways) {}

  bool Touch(uint64_t key) {
    std::list<uint64_t>& set = sets_[key % sets_.size()];
    for (auto it = set.begin(); it != set.end(); ++it) {
      if (*it == key) {
        set.splice(set.begin(), set, it);
        return true;
      }
    }
    set.push_front(key);
    if (set.size() > ways_) {
      set.pop_back();
    }
    return false;
  }

  bool Contains(uint64_t key) const {
    for (uint64_t k : sets_[key % sets_.size()]) {
      if (k == key) {
        return true;
      }
    }
    return false;
  }

  void Clear() {
    for (auto& set : sets_) {
      set.clear();
    }
  }

 private:
  std::vector<std::list<uint64_t>> sets_;
  uint32_t ways_;
};

struct Geometry {
  const char* name;
  uint64_t size_bytes;
  uint32_t ways;
  uint64_t line_size;
};

// Every geometry in use: L1, L2, L3 and the two TLB levels.
constexpr Geometry kGeometries[] = {
    {"l1", 32 * 1024, 8, kCacheLineSize},
    {"l2", 256 * 1024, 8, kCacheLineSize},
    {"l3", 8 * 1024 * 1024, 16, kCacheLineSize},
    {"tlb_l1", 64 * kPageSize, 4, kPageSize},
    {"tlb_l2", 1536 * kPageSize, 6, kPageSize},
};

TEST(TagArray, MatchesReferenceLru) {
  for (const Geometry& g : kGeometries) {
    const uint64_t sets = g.size_bytes / g.line_size / g.ways;
    for (uint64_t seed : {1, 2, 3, 1009}) {
      SCOPED_TRACE(std::string(g.name) + " seed " + std::to_string(seed));
      TagArray tags(g.size_bytes, g.ways, g.line_size);
      ReferenceLru ref(sets, g.ways);
      std::mt19937_64 rng(seed);
      // Four hot sets, each with three times as many tags as ways, so most
      // touches conflict; one touch in 16 lands anywhere.
      for (int i = 0; i < 20000; ++i) {
        const uint64_t r = rng();
        uint64_t key;
        if (r % 16 == 0) {
          key = (r >> 8) % (sets * g.ways * 4);
        } else {
          key = ((r >> 8) % (3 * g.ways)) * sets + (r >> 32) % 4;
        }
        if (r % 4999 == 0) {
          tags.InvalidateAll();
          ref.Clear();
        }
        ASSERT_EQ(tags.Touch(key), ref.Touch(key)) << "touch " << i << " key " << key;
        const uint64_t probe = ((r >> 40) % (3 * g.ways)) * sets + (r >> 56) % 4;
        ASSERT_EQ(tags.Contains(probe), ref.Contains(probe)) << "probe " << i;
      }
    }
  }
}

// A seeded trace of reads and writes on 4 CPUs: 1 B to 64 KiB, same-page
// and page-crossing ranges, and strides that conflict in every cache set.
// The expected values were recorded from the clock-stamped LRU tag arrays
// the model used before its sets were kept in recency order; any host-side
// rewrite of the cache or TLB model must reproduce them exactly.
TEST(CacheModelGolden, SeededTraceAcrossFourCpus) {
  constexpr uint32_t kCpus = 4;
  constexpr uint64_t kL3SetStride = 8192 * kCacheLineSize;
  CostModel costs;
  CacheModel caches(kCpus, costs);
  std::vector<TlbModel> tlbs;
  tlbs.reserve(kCpus);
  for (uint32_t c = 0; c < kCpus; ++c) {
    tlbs.emplace_back(costs);
  }
  std::mt19937_64 rng(42);
  sim::Duration total;
  for (int i = 0; i < 6000; ++i) {
    const uint64_t r = rng();
    const auto cpu = static_cast<CpuId>(r % kCpus);
    const bool is_write = (r >> 2) % 3 == 0;
    uint64_t size;
    switch ((r >> 4) % 8) {
      case 0:
        size = 1 + (r >> 8) % (64 * 1024);
        break;
      case 1:
      case 2:
        size = 1 + (r >> 8) % 4096;
        break;
      default:
        size = 1 + (r >> 8) % 256;
        break;
    }
    uint64_t addr;
    switch ((r >> 28) % 4) {
      case 0:  // set-conflicting stride
        addr = 0x4000000 + ((r >> 32) % 40) * kL3SetStride + ((r >> 40) % 4) * kCacheLineSize;
        break;
      case 1:  // straddles a page boundary
        addr = 0x1000000 + ((r >> 32) % 64) * kPageSize - 1 - (r >> 48) % 200;
        break;
      case 2:  // a hot 24 KiB region
        addr = 0x3000000 + (r >> 32) % (24 * 1024);
        break;
      default:  // anywhere in a 1 MiB region
        addr = 0x2000000 + (r >> 32) % (1024 * 1024);
        break;
    }
    total += caches.Access(cpu, addr, size, is_write);
    const uint64_t asid = 1 + (r >> 60) % 3;
    for (uint64_t page = PageNumber(addr); page <= PageNumber(addr + size - 1); ++page) {
      total += tlbs[cpu].Translate(page << kPageShift, asid);
    }
    if (i % 1500 == 1499) {
      caches.FlushPrivate(static_cast<CpuId>((r >> 16) % kCpus));
    }
  }
  uint64_t walks = 0;
  for (const TlbModel& tlb : tlbs) {
    walks += tlb.walks();
  }
  const CacheStats& s = caches.stats();
  EXPECT_EQ(s.l1_hits, 8628u);
  EXPECT_EQ(s.l2_hits, 75410u);
  EXPECT_EQ(s.l3_hits, 142352u);
  EXPECT_EQ(s.mem_accesses, 96666u);
  EXPECT_EQ(s.remote_transfers, 108837u);
  EXPECT_EQ(total.picos(), 14040905940);
  EXPECT_EQ(walks, 12781u);
}

TEST(TlbModel, MissThenHit) {
  CostModel costs;
  TlbModel tlb(costs);
  EXPECT_EQ(tlb.Translate(0x1000, 1), costs.tlb_walk);
  EXPECT_EQ(tlb.Translate(0x1000, 1), sim::Duration::Zero());
  EXPECT_EQ(tlb.walks(), 1u);
}

TEST(TlbModel, AsidsDoNotAlias) {
  CostModel costs;
  TlbModel tlb(costs);
  tlb.Translate(0x1000, 1);
  EXPECT_EQ(tlb.Translate(0x1000, 2), costs.tlb_walk);
}

TEST(TlbModel, FlushDropsTranslations) {
  CostModel costs;
  TlbModel tlb(costs);
  tlb.Translate(0x1000, 1);
  tlb.Flush();
  EXPECT_EQ(tlb.Translate(0x1000, 1), costs.tlb_walk);
}

TEST(PhysMem, ReadBackWritten) {
  PhysMem mem;
  uint64_t frame = mem.AllocFrame();
  PhysAddr pa = frame << kPageShift;
  const char msg[] = "hello, dIPC";
  mem.Write(pa + 100, std::as_bytes(std::span(msg)));
  char out[sizeof(msg)] = {};
  mem.Read(pa + 100, std::as_writable_bytes(std::span(out)));
  EXPECT_STREQ(out, msg);
}

TEST(PhysMem, ZeroFilledOnFirstTouch) {
  PhysMem mem;
  uint64_t frame = mem.AllocFrame();
  std::byte b{0xFF};
  mem.Read((frame << kPageShift) + 7, std::span(&b, 1));
  EXPECT_EQ(b, std::byte{0});
}

TEST(PhysMem, CopyCrossesFrameBoundaries) {
  PhysMem mem;
  uint64_t f1 = mem.AllocFrame();
  uint64_t f2 = mem.AllocFrame();
  PhysAddr src = (f1 << kPageShift) + kPageSize - 10;  // staddles f1/f2... within alloc region
  std::vector<char> data(20, 'x');
  mem.Write(src, std::as_bytes(std::span(data)));
  uint64_t f3 = mem.AllocFrame();
  PhysAddr dst = f3 << kPageShift;
  mem.Copy(dst, src, 20);
  std::vector<char> out(20);
  mem.Read(dst, std::as_writable_bytes(std::span(out)));
  EXPECT_EQ(out, data);
  (void)f2;
}

TEST(PhysMem, CopyBetweenDifferentPageOffsets) {
  PhysMem mem;
  // 9,000 bytes from offset 4000 of one frame into offset 100 of another:
  // the source crosses two frame boundaries and the destination two others,
  // at different points.
  constexpr uint64_t kLen = 9000;
  const PhysAddr src = (mem.AllocFrame() << kPageShift) + 4000;
  for (int i = 0; i < 3; ++i) {
    mem.AllocFrame();
  }
  const PhysAddr dst = (mem.AllocFrame() << kPageShift) + 100;
  std::vector<std::byte> data(kLen);
  for (uint64_t i = 0; i < kLen; ++i) {
    data[i] = static_cast<std::byte>((i * 7 + 3) % 251);
  }
  mem.Write(src, data);
  mem.Copy(dst, src, kLen);
  std::vector<std::byte> out(kLen + 2);
  mem.Read(dst - 1, out);
  EXPECT_EQ(out.front(), std::byte{0});
  EXPECT_EQ(out.back(), std::byte{0});
  for (uint64_t i = 0; i < kLen; ++i) {
    ASSERT_EQ(out[i + 1], data[i]) << i;
  }
  std::vector<std::byte> src_after(kLen);
  mem.Read(src, src_after);
  EXPECT_EQ(src_after, data);
}

TEST(CacheModel, AddressBeyondEveryFrame) {
  Machine m(2);
  for (int i = 0; i < 4; ++i) {
    m.mem().AllocFrame();
  }
  CacheModel& caches = m.caches();
  const CostModel& costs = m.costs();
  caches.Access(0, 1 << kPageShift, 64, /*is_write=*/true);
  const PhysAddr far = (m.mem().frames_allocated() + 5000) << kPageShift;
  // Never written: clean, however far past the owner table it lies.
  EXPECT_EQ(caches.Access(1, far, 64, /*is_write=*/false), costs.mem_access);
  caches.Access(0, far, 64, /*is_write=*/true);
  EXPECT_EQ(caches.Access(1, far, 64, /*is_write=*/false), costs.remote_transfer);
  // The pages in between are clean; the first write still belongs to CPU 0.
  EXPECT_EQ(caches.Access(1, far - kPageSize, 64, /*is_write=*/false), costs.mem_access);
  EXPECT_EQ(caches.Access(1, 1 << kPageShift, 64, /*is_write=*/false), costs.remote_transfer);
}

TEST(PageTable, LookupSeesMapsAndUnmapsOfRecentPages) {
  PageTable pt(1);
  ASSERT_TRUE(pt.MapPage(0x1000, 7, PageFlags{}, 1).ok());
  EXPECT_EQ(pt.Translate(0x1008), (7ull << kPageShift) | 0x8);
  // Mapping other pages keeps the last page's PTE valid.
  ASSERT_TRUE(pt.MapPage(0x2000, 8, PageFlags{}, 1).ok());
  ASSERT_TRUE(pt.MapPage(0x11000, 10, PageFlags{}, 1).ok());
  EXPECT_EQ(pt.Translate(0x1010), (7ull << kPageShift) | 0x10);
  ASSERT_TRUE(pt.SetTag(0x1000, 4).ok());
  EXPECT_EQ(pt.Lookup(0x1000)->tag, 4u);
  EXPECT_EQ(pt.Translate(0x11000), 10ull << kPageShift);
  EXPECT_EQ(pt.Lookup(0x1000)->tag, 4u);
  // Unmapping the last page, then remapping it elsewhere, is seen at once;
  // unmapping another page leaves the last one found.
  ASSERT_TRUE(pt.UnmapPage(0x1000).ok());
  EXPECT_EQ(pt.Lookup(0x1000), nullptr);
  EXPECT_EQ(pt.Translate(0x11000), 10ull << kPageShift);
  ASSERT_TRUE(pt.UnmapPage(0x2000).ok());
  EXPECT_EQ(pt.Translate(0x11000), 10ull << kPageShift);
  EXPECT_EQ(pt.Lookup(0x2000), nullptr);
  ASSERT_TRUE(pt.UnmapPage(0x11000).ok());
  EXPECT_EQ(pt.Lookup(0x11000), nullptr);
  ASSERT_TRUE(pt.MapPage(0x1000, 9, PageFlags{}, 1).ok());
  EXPECT_EQ(pt.Translate(0x1000), 9ull << kPageShift);
}

TEST(PageTable, MapTranslateUnmap) {
  PageTable pt(1);
  ASSERT_TRUE(pt.MapPage(0x40000000, 99, PageFlags{.writable = true}, 5).ok());
  auto pa = pt.Translate(0x40000123);
  ASSERT_TRUE(pa.has_value());
  EXPECT_EQ(*pa, (99ull << kPageShift) | 0x123);
  EXPECT_TRUE(pt.UnmapPage(0x40000000).ok());
  EXPECT_FALSE(pt.Translate(0x40000000).has_value());
}

TEST(PageTable, DoubleMapFails) {
  PageTable pt(1);
  ASSERT_TRUE(pt.MapPage(0x1000, 1, PageFlags{}, 1).ok());
  EXPECT_EQ(pt.MapPage(0x1000, 2, PageFlags{}, 1).code(), base::ErrorCode::kAlreadyExists);
}

TEST(PageTable, SetTagRetags) {
  PageTable pt(1);
  ASSERT_TRUE(pt.MapPage(0x1000, 1, PageFlags{}, 7).ok());
  ASSERT_TRUE(pt.SetTag(0x1000, 9).ok());
  EXPECT_EQ(pt.Lookup(0x1000)->tag, 9u);
  EXPECT_EQ(pt.SetTag(0x9000, 9).code(), base::ErrorCode::kNotFound);
}

TEST(Machine, PageTableLifecycle) {
  Machine m(2);
  PageTable& pt = m.CreatePageTable();
  EXPECT_EQ(&m.page_table(pt.id()), &pt);
  EXPECT_EQ(m.num_cpus(), 2u);
  m.DestroyPageTable(pt.id());
}

TEST(Machine, CpusHaveDistinctTlbs) {
  Machine m(2);
  m.cpu(0).tlb().Translate(0x5000, 1);
  // CPU 1's TLB must still miss.
  EXPECT_EQ(m.cpu(1).tlb().Translate(0x5000, 1), m.costs().tlb_walk);
}

}  // namespace
}  // namespace dipc::hw
