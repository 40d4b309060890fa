#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "common/contracts.hpp"
#include "mem/memory.hpp"

namespace zolcsim::mem {
namespace {

TEST(Memory, UnwrittenReadsAsZero) {
  Memory m;
  EXPECT_EQ(m.read8(0), 0);
  EXPECT_EQ(m.read16(0x8000), 0);
  EXPECT_EQ(m.read32(0xFFFF'FFFCu), 0u);
  EXPECT_EQ(m.resident_pages(), 0u);  // reads do not allocate
}

TEST(Memory, ByteRoundTrip) {
  Memory m;
  m.write8(5, 0xAB);
  EXPECT_EQ(m.read8(5), 0xAB);
  EXPECT_EQ(m.read8(4), 0);
  EXPECT_EQ(m.read8(6), 0);
}

TEST(Memory, LittleEndianComposition) {
  Memory m;
  m.write32(0x100, 0x0403'0201u);
  EXPECT_EQ(m.read8(0x100), 0x01);
  EXPECT_EQ(m.read8(0x101), 0x02);
  EXPECT_EQ(m.read8(0x102), 0x03);
  EXPECT_EQ(m.read8(0x103), 0x04);
  EXPECT_EQ(m.read16(0x100), 0x0201);
  EXPECT_EQ(m.read16(0x102), 0x0403);
}

TEST(Memory, HalfwordRoundTrip) {
  Memory m;
  m.write16(0x200, 0xBEEF);
  EXPECT_EQ(m.read16(0x200), 0xBEEF);
  EXPECT_EQ(m.read8(0x200), 0xEF);
  EXPECT_EQ(m.read8(0x201), 0xBE);
}

TEST(Memory, MisalignedAccessesFault) {
  Memory m;
  EXPECT_THROW((void)m.read16(1), MemoryFault);
  EXPECT_THROW((void)m.read32(2), MemoryFault);
  EXPECT_THROW(m.write16(3, 0), MemoryFault);
  EXPECT_THROW(m.write32(0x101, 0), MemoryFault);
  EXPECT_THROW((void)m.fetch32(0x1002), MemoryFault);
}

TEST(Memory, CrossPageBytes) {
  Memory m;
  const std::uint32_t boundary = Memory::kPageSize;
  m.write8(boundary - 1, 0x11);
  m.write8(boundary, 0x22);
  EXPECT_EQ(m.read8(boundary - 1), 0x11);
  EXPECT_EQ(m.read8(boundary), 0x22);
  EXPECT_EQ(m.resident_pages(), 2u);
}

TEST(Memory, SparseFootprint) {
  Memory m;
  m.write32(0x0000'0000, 1);
  m.write32(0x8000'0000, 2);
  m.write32(0xFFFF'F000, 3);
  EXPECT_EQ(m.resident_pages(), 3u);
  EXPECT_EQ(m.read32(0x8000'0000), 2u);
}

TEST(Memory, LoadWordsAndReadBack) {
  Memory m;
  const std::array<std::uint32_t, 3> words = {10, 20, 30};
  m.load_words(0x1000, words);
  const auto back = m.read_words(0x1000, 3);
  EXPECT_EQ(back, (std::vector<std::uint32_t>{10, 20, 30}));
}

TEST(Memory, LoadBytes) {
  Memory m;
  const std::array<std::uint8_t, 5> bytes = {1, 2, 3, 4, 5};
  m.load_bytes(Memory::kPageSize - 2, bytes);  // crosses a page boundary
  EXPECT_EQ(m.read8(Memory::kPageSize - 2), 1);
  EXPECT_EQ(m.read8(Memory::kPageSize + 2), 5);
}

TEST(Memory, OverwriteInPlace) {
  Memory m;
  m.write32(0x40, 0xAAAA'AAAA);
  m.write32(0x40, 0x5555'5555);
  EXPECT_EQ(m.read32(0x40), 0x5555'5555u);
}

// ---- copy-on-write baseline ----

constexpr std::uint32_t kImageBytes = 4 * Memory::kPageSize;

/// The test image's word at `addr` (below kImageBytes).
std::uint32_t image_word(std::uint32_t addr) { return addr * 2654435761u + 1; }

/// Writes the deterministic test image (several pages) into `m`.
void write_image(Memory& m) {
  for (std::uint32_t addr = 0; addr < kImageBytes; addr += 4) {
    m.write32(addr, image_word(addr));
  }
}

/// A small deterministic baseline image spanning several pages.
std::shared_ptr<const Memory> make_baseline() {
  auto image = std::make_shared<Memory>();
  write_image(*image);
  return image;
}

TEST(MemoryCow, ReadsFallThroughToBaseline) {
  const auto baseline = make_baseline();
  Memory view;
  view.set_baseline(baseline);
  EXPECT_TRUE(view.has_baseline());
  EXPECT_EQ(view.read32(0x40), baseline->read32(0x40));
  EXPECT_EQ(view.fetch32(0x1000), baseline->fetch32(0x1000));
  // Beyond the baseline image: still zero.
  EXPECT_EQ(view.read32(8 * Memory::kPageSize), 0u);
  EXPECT_EQ(view.resident_pages(), 0u);  // reads never privatize
}

TEST(MemoryCow, WritePrivatizesOnePage) {
  const auto baseline = make_baseline();
  Memory view;
  view.set_baseline(baseline);
  const std::uint32_t before = view.read32(0x104);
  view.write32(0x100, 0xDEAD'BEEF);
  EXPECT_EQ(view.resident_pages(), 1u);
  EXPECT_EQ(view.read32(0x100), 0xDEAD'BEEFu);
  // The rest of the privatized page was copied, not zeroed.
  EXPECT_EQ(view.read32(0x104), before);
  // The shared baseline is untouched.
  EXPECT_NE(baseline->read32(0x100), 0xDEAD'BEEFu);
}

TEST(MemoryCow, ResetToBaselineDropsDirtyPages) {
  const auto baseline = make_baseline();
  Memory view;
  view.set_baseline(baseline);
  view.write32(0x100, 1);
  view.write32(Memory::kPageSize + 8, 2);
  view.write32(9 * Memory::kPageSize, 3);  // a page the baseline lacks
  EXPECT_EQ(view.resident_pages(), 3u);
  view.reset_to_baseline();
  EXPECT_EQ(view.resident_pages(), 0u);
  EXPECT_EQ(view.read32(0x100), baseline->read32(0x100));
  EXPECT_EQ(view.read32(9 * Memory::kPageSize), 0u);
  EXPECT_TRUE(view == *baseline);
}

TEST(MemoryCow, MisalignedFaultDoesNotPrivatize) {
  const auto baseline = make_baseline();
  Memory view;
  view.set_baseline(baseline);
  EXPECT_THROW(view.write32(0x101, 1), MemoryFault);
  EXPECT_THROW(view.write16(0x7, 1), MemoryFault);
  EXPECT_THROW((void)view.read32(0x2), MemoryFault);
  EXPECT_EQ(view.resident_pages(), 0u);
  EXPECT_TRUE(view == *baseline);
}

TEST(MemoryCow, SetBaselineContracts) {
  const auto baseline = make_baseline();
  Memory chained;
  chained.set_baseline(baseline);
  auto shared_view = std::make_shared<Memory>();
  shared_view->set_baseline(baseline);

  Memory dirty;
  dirty.write8(0, 1);
  EXPECT_THROW(dirty.set_baseline(baseline), ContractViolation);
  Memory view;
  EXPECT_THROW(view.set_baseline(nullptr), ContractViolation);
  // No COW chains: a view cannot serve as another view's baseline.
  EXPECT_THROW(view.set_baseline(shared_view), ContractViolation);
  Memory plain;
  EXPECT_THROW(plain.reset_to_baseline(), ContractViolation);
}

TEST(MemoryCow, EqualityIgnoresResidencyDifferences) {
  const auto baseline = make_baseline();
  Memory view;
  view.set_baseline(baseline);
  // A privatized page with unchanged content stays equal to the baseline.
  const std::uint32_t v = view.read32(0x200);
  view.write32(0x200, v);
  EXPECT_EQ(view.resident_pages(), 1u);
  EXPECT_TRUE(view == *baseline);
  // An all-zero private page equals absent memory on the other side.
  Memory a;
  Memory b;
  a.write32(5 * Memory::kPageSize, 0);
  EXPECT_TRUE(a == b);
  a.write32(5 * Memory::kPageSize, 7);
  EXPECT_FALSE(a == b);
}

/// Randomized write/reset fuzz: a COW view and a plain-copy oracle receive
/// the same writes; every read width of both must agree with a word model
/// kept outside Memory, the view must stay equal to the oracle, and after
/// reset_to_baseline() it must match the pristine image again. Most writes hit the baseline pages and the seam
/// past them; a quarter land anywhere in the 32-bit space, and fixed probes
/// cover the first and last pages and both sides of a directory leaf
/// boundary.
TEST(MemoryCow, FuzzAgainstPlainCopyOracle) {
  const auto baseline = make_baseline();
  Memory view;
  view.set_baseline(baseline);

  std::uint64_t rng = 0x9E3779B97F4A7C15ull;
  const auto next = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  const auto random_addr = [&next] {
    const std::uint64_t r = next();
    if (r % 4 == 0) return static_cast<std::uint32_t>(r >> 32) & ~3u;
    return static_cast<std::uint32_t>((r >> 2) % (6 * Memory::kPageSize)) &
           ~3u;
  };
  constexpr std::uint32_t kLeafSpan = Memory::kLeafPages * Memory::kPageSize;
  constexpr std::array<std::uint32_t, 5> kProbes = {
      0x0000'0000u, 0x0000'0FFCu, 0xFFFF'F000u, kLeafSpan - 4, kLeafSpan};

  for (int round = 0; round < 8; ++round) {
    Memory oracle;  // plain copy of the image, rebuilt the cold way
    write_image(oracle);
    std::map<std::uint32_t, std::uint32_t> written;  // the word model
    std::vector<std::uint32_t> touched(kProbes.begin(), kProbes.end());
    const auto write = [&](std::uint32_t addr) {
      const auto value = static_cast<std::uint32_t>(next());
      view.write32(addr, value);
      oracle.write32(addr, value);
      written[addr] = value;
    };
    for (std::uint32_t addr : kProbes) write(addr);
    for (int i = 0; i < 400; ++i) {
      const std::uint32_t addr = random_addr();
      write(addr);
      touched.push_back(addr);
      touched.push_back(random_addr());  // reads an untouched spot too
    }
    for (std::uint32_t addr : touched) {
      const auto it = written.find(addr);
      const std::uint32_t want = it != written.end() ? it->second
                                 : addr < kImageBytes ? image_word(addr)
                                                      : 0u;
      for (const Memory* m : {&view, &oracle}) {
        const char* which = m == &view ? "view" : "oracle";
        ASSERT_EQ(m->read32(addr), want) << which << " round " << round;
        ASSERT_EQ(m->read16(addr), want & 0xFFFFu) << which;
        ASSERT_EQ(m->read16(addr + 2), want >> 16) << which;
        for (std::uint32_t ofs = 0; ofs < 4; ++ofs) {
          ASSERT_EQ(m->read8(addr + ofs), (want >> (8 * ofs)) & 0xFFu)
              << which << " addr " << addr + ofs;
        }
      }
    }
    EXPECT_TRUE(view == oracle) << "round " << round;
    view.reset_to_baseline();
    EXPECT_TRUE(view == *baseline) << "round " << round;
    EXPECT_EQ(view.resident_pages(), 0u);
  }
}

}  // namespace
}  // namespace zolcsim::mem
