// Table codec tests: the paper-geometry bit layouts pinned exactly, plus
// randomized pack -> unpack round-trips across the paper geometry and
// several extended geometries (including one whose exit records straddle
// two init words).
#include <gtest/gtest.h>

#include <vector>

#include "common/bitutil.hpp"
#include "zolc/tables.hpp"

namespace zolcsim::zolc {
namespace {

/// Deterministic generator (xorshift32) for the randomized round-trips.
class Rng {
 public:
  explicit Rng(std::uint32_t seed) : state_(seed) {}
  std::uint32_t next() {
    state_ ^= state_ << 13;
    state_ ^= state_ >> 17;
    state_ ^= state_ << 5;
    return state_;
  }
  /// Uniform value representable in `bits` bits.
  std::uint32_t field(unsigned bits) { return next() & mask32(bits); }

 private:
  std::uint32_t state_;
};

const std::vector<ZolcGeometry>& test_geometries() {
  static const std::vector<ZolcGeometry> geoms = {
      ZolcGeometry{},                  // paper ZOLCfull
      ZolcGeometry{32, 8, 0, 0},       // paper ZOLClite table shape
      ZolcGeometry{32, 16, 4, 4},      // deeper: 2-word exit records
      ZolcGeometry{16, 32, 2, 2},      // widest loop table
      ZolcGeometry{64, 4, 1, 1},       // task-heavy
      ZolcGeometry{64, 8, 2, 2, 14},   // narrowed pc offsets
  };
  return geoms;
}

// ---------------- paper-layout golden bits ----------------

TEST(TableLayout, TaskEntryPaperBitsArePinned) {
  TaskEntry e;
  e.end_pc_ofs = 0xBEEF;
  e.loop_id = 5;
  e.next_task_cont = 17;
  e.next_task_done = 31;
  e.is_last = true;
  e.valid = true;
  // [15:0]=0xBEEF, [18:16]=5, [23:19]=17, [28:24]=31, [29]=1, [30]=1.
  const std::uint32_t expected = 0xBEEFu | (5u << 16) | (17u << 19) |
                                 (31u << 24) | (1u << 29) | (1u << 30);
  EXPECT_EQ(e.pack(), expected);
  EXPECT_EQ(TaskEntry::unpack(expected), e);
}

TEST(TableLayout, ExitRecordPaperBitsArePinned) {
  ExitRecord r;
  r.branch_pc_ofs = 0x1234;
  r.next_task = 9;
  r.reinit_mask = 0xA5;
  r.valid = true;
  r.deactivate = true;
  // lo: [15:0]=0x1234, [20:16]=9, [28:21]=0xA5, [29]=1, [30]=1; hi: 0.
  const std::uint32_t lo =
      0x1234u | (9u << 16) | (0xA5u << 21) | (1u << 29) | (1u << 30);
  EXPECT_EQ(r.pack_lo(), lo);
  EXPECT_EQ(r.pack_hi(), 0u);
  ExitRecord back;
  back.unpack_lo(lo);
  EXPECT_EQ(back, r);
}

TEST(TableLayout, EntryRecordPaperBitsArePinned) {
  EntryRecord r;
  r.entry_pc_ofs = 0xFFFF;
  r.next_task = 31;
  r.reinit_mask = 0x03;
  r.valid = true;
  const std::uint32_t lo = 0xFFFFu | (31u << 16) | (0x03u << 21) | (1u << 29);
  EXPECT_EQ(r.pack_lo(), lo);
  EntryRecord back;
  back.unpack_lo(lo);
  EXPECT_EQ(back, r);
}

// ---------------- randomized round-trips ----------------

TEST(TableRoundTrip, TaskEntryAcrossGeometries) {
  for (const ZolcGeometry& g : test_geometries()) {
    ASSERT_TRUE(g.valid()) << g.label();
    Rng rng(0xC0FFEE01u + g.max_loops);
    for (int i = 0; i < 500; ++i) {
      TaskEntry e;
      e.end_pc_ofs = static_cast<std::uint16_t>(rng.field(g.pc_ofs_bits));
      e.loop_id = static_cast<std::uint8_t>(rng.field(g.loop_id_bits()));
      e.next_task_cont = static_cast<std::uint8_t>(rng.field(g.task_id_bits()));
      e.next_task_done = static_cast<std::uint8_t>(rng.field(g.task_id_bits()));
      e.is_last = rng.field(1) != 0;
      e.valid = rng.field(1) != 0;
      EXPECT_EQ(TaskEntry::unpack(e.pack(g), g), e) << g.label();
    }
  }
}

TEST(TableRoundTrip, LoopEntryRandomized) {
  Rng rng(0xFEEDFACEu);
  for (int i = 0; i < 500; ++i) {
    LoopEntry e;
    e.initial = static_cast<std::int16_t>(rng.field(16));
    e.final = static_cast<std::int16_t>(rng.field(16));
    e.step = static_cast<std::int8_t>(rng.field(8));
    e.index_rf = static_cast<std::uint8_t>(rng.field(5));
    e.cond = static_cast<LoopCond>(rng.field(2));
    e.valid = rng.field(1) != 0;
    LoopEntry back;
    back.unpack_word0(e.pack_word0());
    back.unpack_word1(e.pack_word1());
    EXPECT_EQ(back, e);
  }
}

TEST(TableRoundTrip, ExitRecordAcrossGeometries) {
  for (const ZolcGeometry& g : test_geometries()) {
    Rng rng(0xDEADBEEFu + g.max_tasks);
    for (int i = 0; i < 500; ++i) {
      ExitRecord r;
      r.branch_pc_ofs = static_cast<std::uint16_t>(rng.field(g.pc_ofs_bits));
      r.next_task = static_cast<std::uint8_t>(rng.field(g.task_id_bits()));
      r.reinit_mask = rng.field(g.max_loops);
      r.valid = rng.field(1) != 0;
      r.deactivate = rng.field(1) != 0;
      EXPECT_EQ(ExitRecord::unpack64(r.pack64(g), g), r) << g.label();
      // The two-word write protocol reconstructs the same record in either
      // write order.
      ExitRecord via_words;
      via_words.unpack_lo(r.pack_lo(g), g);
      via_words.unpack_hi(r.pack_hi(g), g);
      EXPECT_EQ(via_words, r) << g.label();
      ExitRecord hi_first;
      hi_first.unpack_hi(r.pack_hi(g), g);
      hi_first.unpack_lo(r.pack_lo(g), g);
      EXPECT_EQ(hi_first, r) << g.label();
    }
  }
}

TEST(TableRoundTrip, EntryRecordAcrossGeometries) {
  for (const ZolcGeometry& g : test_geometries()) {
    Rng rng(0xB16B00B5u + g.pc_ofs_bits);
    for (int i = 0; i < 500; ++i) {
      EntryRecord r;
      r.entry_pc_ofs = static_cast<std::uint16_t>(rng.field(g.pc_ofs_bits));
      r.next_task = static_cast<std::uint8_t>(rng.field(g.task_id_bits()));
      r.reinit_mask = rng.field(g.max_loops);
      r.valid = rng.field(1) != 0;
      EXPECT_EQ(EntryRecord::unpack64(r.pack64(g), g), r) << g.label();
      EntryRecord via_words;
      via_words.unpack_lo(r.pack_lo(g), g);
      via_words.unpack_hi(r.pack_hi(g), g);
      EXPECT_EQ(via_words, r) << g.label();
    }
  }
}

TEST(TableRoundTrip, WideGeometryUsesTheHiWord) {
  // 16 loops: exit records are 40 bits, so the mask's top bits live in the
  // hi word and must survive the split write protocol.
  const ZolcGeometry g{32, 16, 4, 4};
  ASSERT_EQ(g.record_words(), 2u);
  ExitRecord r;
  r.branch_pc_ofs = 0x0FF0;
  r.next_task = 21;
  r.reinit_mask = 0xFFFF;  // all 16 loops
  r.valid = true;
  r.deactivate = true;
  EXPECT_NE(r.pack_hi(g), 0u);
  ExitRecord back;
  back.unpack_lo(r.pack_lo(g), g);
  back.unpack_hi(r.pack_hi(g), g);
  EXPECT_EQ(back, r);
}

}  // namespace
}  // namespace zolcsim::zolc
