// Unit tests for the ZOLC controller: table formats, init-mode writes,
// task-end semantics (continue / done / cascade), exit and entry records,
// capacity enforcement, and snapshot/rollback.
#include <gtest/gtest.h>

#include <limits>
#include <optional>
#include <random>
#include <string>

#include "cpu/exec.hpp"
#include "zolc/controller.hpp"

namespace zolcsim::zolc {
namespace {

using isa::Opcode;

// ---------------- table pack/unpack ----------------

TEST(Tables, TaskEntryRoundTrip) {
  TaskEntry e;
  e.end_pc_ofs = 0xBEEF;
  e.loop_id = 5;
  e.next_task_cont = 17;
  e.next_task_done = 31;
  e.is_last = true;
  e.valid = true;
  EXPECT_EQ(TaskEntry::unpack(e.pack()), e);
}

TEST(Tables, TaskEntryFieldIsolation) {
  // Flipping one field must not disturb the others.
  TaskEntry e;
  e.valid = true;
  for (unsigned loop = 0; loop < 8; ++loop) {
    e.loop_id = static_cast<std::uint8_t>(loop);
    const TaskEntry back = TaskEntry::unpack(e.pack());
    EXPECT_EQ(back.loop_id, loop);
    EXPECT_EQ(back.end_pc_ofs, 0);
    EXPECT_TRUE(back.valid);
  }
}

TEST(Tables, LoopEntryRoundTrip) {
  LoopEntry e;
  e.initial = -5;
  e.final = 32767;
  e.step = -3;
  e.index_rf = 19;
  e.cond = LoopCond::kGe;
  e.valid = true;
  LoopEntry back;
  back.unpack_word0(e.pack_word0());
  back.unpack_word1(e.pack_word1());
  EXPECT_EQ(back.initial, -5);
  EXPECT_EQ(back.final, 32767);
  EXPECT_EQ(back.step, -3);
  EXPECT_EQ(back.index_rf, 19);
  EXPECT_EQ(back.cond, LoopCond::kGe);
  EXPECT_TRUE(back.valid);
}

TEST(Tables, ExitRecordRoundTrip) {
  ExitRecord r;
  r.branch_pc_ofs = 0x1234;
  r.next_task = 9;
  r.reinit_mask = 0xA5;
  r.valid = true;
  r.deactivate = true;
  ExitRecord back;
  back.unpack_lo(r.pack_lo());
  EXPECT_EQ(back, r);
}

TEST(Tables, EntryRecordRoundTrip) {
  EntryRecord r;
  r.entry_pc_ofs = 0xFFFF;
  r.next_task = 31;
  r.reinit_mask = 0x03;
  r.valid = true;
  EntryRecord back;
  back.unpack_lo(r.pack_lo());
  EXPECT_EQ(back, r);
}

TEST(Tables, CondHolds) {
  EXPECT_TRUE(nest_cond_holds(NestCond::kLt, 3, 4));
  EXPECT_FALSE(nest_cond_holds(NestCond::kLt, 4, 4));
  EXPECT_TRUE(nest_cond_holds(NestCond::kLe, 4, 4));
  EXPECT_FALSE(nest_cond_holds(NestCond::kLe, 5, 4));
  EXPECT_TRUE(nest_cond_holds(NestCond::kGt, 1, 0));
  EXPECT_FALSE(nest_cond_holds(NestCond::kGt, 0, 0));
  EXPECT_TRUE(nest_cond_holds(NestCond::kGe, 0, 0));
  EXPECT_FALSE(nest_cond_holds(NestCond::kGe, -1, 0));
}

// ---------------- helpers ----------------

/// Programs a lite/full controller with one loop and `n_tasks` tasks.
void write_loop(ZolcController& c, unsigned id, std::int16_t initial,
                std::int16_t final, std::int8_t step, std::uint8_t index_rf,
                LoopCond cond = LoopCond::kLt) {
  LoopEntry e;
  e.initial = initial;
  e.final = final;
  e.step = step;
  e.index_rf = index_rf;
  e.cond = cond;
  e.valid = true;
  c.init_write(Opcode::kZolwLp0, static_cast<std::uint8_t>(id), e.pack_word0());
  c.init_write(Opcode::kZolwLp1, static_cast<std::uint8_t>(id), e.pack_word1());
}

void write_task(ZolcController& c, unsigned id, std::uint16_t start_ofs,
                std::uint16_t end_ofs, std::uint8_t loop_id,
                std::uint8_t cont, std::uint8_t done, bool is_last) {
  TaskEntry e;
  e.end_pc_ofs = end_ofs;
  e.loop_id = loop_id;
  e.next_task_cont = cont;
  e.next_task_done = done;
  e.is_last = is_last;
  e.valid = true;
  c.init_write(Opcode::kZolwTe, static_cast<std::uint8_t>(id), e.pack());
  c.init_write(Opcode::kZolwTs, static_cast<std::uint8_t>(id), start_ofs);
}

constexpr std::uint32_t kBase = 0x1000;
constexpr std::uint32_t pc_of(std::uint16_t ofs) { return kBase + ofs * 4; }

/// The SimError text the fetch event at `pc` raises, or "" when it does
/// not throw. Also checks that on_fetch, which does not raise, records the
/// same fault in its event, and that raising that reproduces the text.
std::string fetch_error(ZolcController& c, std::uint32_t pc) {
  const AccelSnapshot before = c.snapshot();
  std::string deferred;
  if (const auto ev = c.on_fetch(pc); ev && ev->fault != WalkFault::kNone) {
    try {
      c.raise_walk_fault(ev->fault, ev->fault_task, pc);
    } catch (const SimError& e) {
      deferred = e.what();
    }
  }
  c.restore(before);
  std::string raised;
  try {
    (void)c.fetch_event(pc, [](std::uint8_t, std::int32_t) {});
  } catch (const SimError& e) {
    raised = e.what();
  }
  EXPECT_EQ(deferred, raised);
  return raised;
}

// ---------------- uZOLC ----------------

class MicroTest : public ::testing::Test {
 protected:
  void program(std::int32_t initial, std::int32_t final, std::int32_t step,
               std::uint8_t index_rf, std::uint32_t start_pc,
               std::uint32_t end_pc, LoopCond cond = LoopCond::kLt) {
    c.init_write(Opcode::kZolwU, 0, static_cast<std::uint32_t>(initial));
    c.init_write(Opcode::kZolwU, 1, static_cast<std::uint32_t>(final));
    c.init_write(Opcode::kZolwU, 2, static_cast<std::uint32_t>(step));
    c.init_write(Opcode::kZolwU, 4, start_pc);
    c.init_write(Opcode::kZolwU, 5, end_pc);
    c.init_write(Opcode::kZolwU, 6, pack_micro_ctrl(index_rf, cond));
  }

  ZolcController c{ZolcVariant::kMicro};
};

TEST_F(MicroTest, SingleLoopSequence) {
  program(0, 3, 1, 7, pc_of(10), pc_of(12));
  c.activate(0, kBase);
  ASSERT_TRUE(c.active());

  // Iteration 1 boundary: 0 -> 1, continue.
  ASSERT_TRUE(c.will_trigger(pc_of(12)));
  auto ev = c.on_fetch(pc_of(12));
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->redirect.value(), pc_of(10));
  ASSERT_EQ(ev->rf_writes.size(), 1u);
  EXPECT_EQ(ev->rf_writes[0].reg, 7);
  EXPECT_EQ(ev->rf_writes[0].value, 1);

  // Iteration 2 boundary: 1 -> 2, continue.
  ev = c.on_fetch(pc_of(12));
  EXPECT_EQ(ev->rf_writes[0].value, 2);

  // Iteration 3 boundary: 2 -> 3 == final, done: reinit + fall-through.
  ev = c.on_fetch(pc_of(12));
  ASSERT_TRUE(ev.has_value());
  EXPECT_FALSE(ev->redirect.has_value());
  EXPECT_EQ(ev->rf_writes[0].value, 0);  // reinit-on-exit
  EXPECT_TRUE(c.active());               // stays armed for re-entry

  // Re-entry works without reprogramming.
  ev = c.on_fetch(pc_of(12));
  EXPECT_EQ(ev->rf_writes[0].value, 1);
  EXPECT_EQ(ev->redirect.value(), pc_of(10));
}

TEST_F(MicroTest, NoTriggerOffEndPc) {
  program(0, 3, 1, 7, pc_of(10), pc_of(12));
  c.activate(0, kBase);
  EXPECT_FALSE(c.will_trigger(pc_of(11)));
  EXPECT_FALSE(c.on_fetch(pc_of(11)).has_value());
  EXPECT_FALSE(c.will_trigger(pc_of(13)));
}

TEST_F(MicroTest, InactiveNeverTriggers) {
  program(0, 3, 1, 7, pc_of(10), pc_of(12));
  EXPECT_FALSE(c.will_trigger(pc_of(12)));
  c.activate(0, kBase);
  c.deactivate();
  EXPECT_FALSE(c.will_trigger(pc_of(12)));
}

TEST_F(MicroTest, NegativeStepCountsDown) {
  program(5, 0, -1, 3, pc_of(20), pc_of(22), LoopCond::kGt);
  c.activate(0, kBase);
  std::vector<std::int32_t> seen;
  for (int i = 0; i < 5; ++i) {
    auto ev = c.on_fetch(pc_of(22));
    ASSERT_TRUE(ev.has_value());
    seen.push_back(ev->rf_writes[0].value);
  }
  // 4, 3, 2, 1 continue; then 0 fails (kGt 0) -> reinit to 5.
  EXPECT_EQ(seen, (std::vector<std::int32_t>{4, 3, 2, 1, 5}));
}

TEST_F(MicroTest, IndexUpdateWrapsAtInt32Max) {
  // The index adder wraps like the core's: INT32_MAX + 1 is INT32_MIN,
  // which still satisfies kLe INT32_MAX, so both events continue.
  constexpr std::int32_t kMax = std::numeric_limits<std::int32_t>::max();
  program(kMax - 1, kMax, 1, 7, pc_of(10), pc_of(12), LoopCond::kLe);
  c.activate(0, kBase);
  for (const std::int32_t expected :
       {kMax, std::numeric_limits<std::int32_t>::min()}) {
    auto ev = c.on_fetch(pc_of(12));
    ASSERT_TRUE(ev.has_value());
    EXPECT_EQ(ev->redirect, pc_of(10));
    ASSERT_EQ(ev->rf_writes.size(), 1u);
    EXPECT_EQ(ev->rf_writes[0].value, expected);
  }
}

TEST_F(MicroTest, RejectsTaskWrites) {
  EXPECT_THROW(c.init_write(Opcode::kZolwTe, 0, 0), SimError);
  EXPECT_THROW(c.init_write(Opcode::kZolwLp0, 0, 0), SimError);
  EXPECT_THROW(c.init_write(Opcode::kZolwEx0, 0, 0), SimError);
  EXPECT_THROW(c.init_write(Opcode::kZolwU, kMicroRegCount, 0), SimError);
}

// ---------------- ZOLClite ----------------

class LiteTest : public ::testing::Test {
 protected:
  ZolcController c{ZolcVariant::kLite};
};

TEST_F(LiteTest, SingleLoopTask) {
  write_loop(c, 0, 0, 4, 1, 9);
  write_task(c, 0, /*start=*/100, /*end=*/105, /*loop=*/0, /*cont=*/0,
             /*done=*/0, /*is_last=*/true);
  c.activate(0, kBase);

  for (int iter = 1; iter < 4; ++iter) {
    auto ev = c.on_fetch(pc_of(105));
    ASSERT_TRUE(ev.has_value());
    EXPECT_EQ(ev->redirect.value(), pc_of(100));
    EXPECT_EQ(ev->rf_writes[0].value, iter);
  }
  auto ev = c.on_fetch(pc_of(105));
  ASSERT_TRUE(ev.has_value());
  EXPECT_FALSE(ev->redirect.has_value());
  EXPECT_FALSE(c.active());  // is_last deactivates
  EXPECT_EQ(ev->rf_writes[0].value, 0);
  EXPECT_EQ(c.zolc_stats().continue_events, 3u);
  EXPECT_EQ(c.zolc_stats().done_events, 1u);
}

TEST_F(LiteTest, SequentialLoops) {
  // Two back-to-back loops: task0 (loop0, body 100..105) then task1
  // (loop1, body 110..115), then leave.
  write_loop(c, 0, 0, 2, 1, 9);
  write_loop(c, 1, 0, 3, 1, 10);
  write_task(c, 0, 100, 105, 0, /*cont=*/0, /*done=*/1, false);
  write_task(c, 1, 110, 115, 1, /*cont=*/1, /*done=*/1, true);
  c.activate(0, kBase);

  // Loop 0: one continue, then done -> redirect to task1 start.
  auto ev = c.on_fetch(pc_of(105));
  EXPECT_EQ(ev->redirect.value(), pc_of(100));
  ev = c.on_fetch(pc_of(105));
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->redirect.value(), pc_of(110));
  EXPECT_EQ(c.current_task(), 1);
  EXPECT_TRUE(c.active());

  // Loop 1 runs 3 iterations.
  ev = c.on_fetch(pc_of(115));
  EXPECT_EQ(ev->rf_writes[0].value, 1);
  ev = c.on_fetch(pc_of(115));
  EXPECT_EQ(ev->rf_writes[0].value, 2);
  ev = c.on_fetch(pc_of(115));
  EXPECT_FALSE(ev->redirect.has_value());
  EXPECT_FALSE(c.active());
}

TEST_F(LiteTest, PerfectNestCascade) {
  // for i in 0..2 { for j in 0..2 { body } } with a shared boundary at 205.
  write_loop(c, 0, 0, 2, 1, 8);  // outer i
  write_loop(c, 1, 0, 2, 1, 9);  // inner j
  write_task(c, 0, 200, 205, 1, /*cont=*/0, /*done=*/1, false);  // inner
  write_task(c, 1, 200, 205, 0, /*cont=*/0, /*done=*/1, true);   // outer
  c.activate(0, kBase);

  // j: 0->1 continue.
  auto ev = c.on_fetch(pc_of(205));
  EXPECT_EQ(ev->redirect.value(), pc_of(200));
  EXPECT_EQ(c.current_task(), 0);

  // j done; cascade to outer: i 0->1 continue; j reinit.
  ev = c.on_fetch(pc_of(205));
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->redirect.value(), pc_of(200));
  ASSERT_EQ(ev->rf_writes.size(), 2u);
  EXPECT_EQ(ev->rf_writes[0].reg, 9);   // inner j := 0 (reinit-on-exit)
  EXPECT_EQ(ev->rf_writes[0].value, 0);
  EXPECT_EQ(ev->rf_writes[1].reg, 8);   // outer i := 1
  EXPECT_EQ(ev->rf_writes[1].value, 1);
  EXPECT_EQ(c.current_task(), 0);
  EXPECT_EQ(c.zolc_stats().cascade_chains, 1u);

  // Second inner pass: continue, then final cascade deactivates.
  ev = c.on_fetch(pc_of(205));
  EXPECT_EQ(ev->redirect.value(), pc_of(200));
  ev = c.on_fetch(pc_of(205));
  ASSERT_TRUE(ev.has_value());
  EXPECT_FALSE(ev->redirect.has_value());
  EXPECT_FALSE(c.active());
  EXPECT_EQ(c.zolc_stats().max_cascade_depth, 2u);
}

TEST_F(LiteTest, WriteWhileActiveTraps) {
  write_loop(c, 0, 0, 2, 1, 9);
  write_task(c, 0, 100, 105, 0, 0, 0, true);
  c.activate(0, kBase);
  EXPECT_THROW(write_loop(c, 1, 0, 2, 1, 9), SimError);
  EXPECT_THROW(c.activate(0, kBase), SimError);
}

TEST_F(LiteTest, MisalignedBaseTraps) {
  EXPECT_THROW(c.activate(0, kBase + 2), SimError);
}

TEST_F(LiteTest, TaskReferencingInvalidLoopTraps) {
  write_task(c, 0, 100, 105, /*loop=*/3, 0, 0, true);  // loop 3 never written
  c.activate(0, kBase);
  EXPECT_EQ(fetch_error(c, pc_of(105)), "task 0 references invalid loop 3");
}

TEST_F(LiteTest, CircularCascadeTraps) {
  // Two always-done loops whose tasks chain to each other at the same end
  // offset: the cascade would never terminate; hardware depth limit trips.
  write_loop(c, 0, 0, 0, 1, 8);  // 1 < 0 fails instantly (always done)
  write_loop(c, 1, 0, 0, 1, 9);
  write_task(c, 0, 100, 105, 0, 0, /*done=*/1, false);
  write_task(c, 1, 100, 105, 1, 1, /*done=*/0, false);
  c.activate(0, kBase);
  EXPECT_EQ(fetch_error(c, pc_of(105)),
            "ZOLC cascade exceeded hardware depth at 0x000011A4");
}

TEST_F(LiteTest, ExitRecordsRejected) {
  ExitRecord r;
  r.valid = true;
  EXPECT_THROW(c.init_write(Opcode::kZolwEx0, 0, r.pack_lo()), SimError);
  EXPECT_THROW(c.init_write(Opcode::kZolwEn0, 0, 0), SimError);
  EXPECT_THROW(c.init_write(Opcode::kZolwU, 0, 0), SimError);
}

TEST_F(LiteTest, OnTakenControlIsInertWithoutRecords) {
  write_loop(c, 0, 0, 4, 1, 9);
  write_task(c, 0, 100, 105, 0, 0, 0, true);
  c.activate(0, kBase);
  EXPECT_FALSE(c.on_taken_control(pc_of(103), pc_of(200)).has_value());
}

TEST_F(LiteTest, OutOfWindowPcNeverTriggers) {
  write_loop(c, 0, 0, 4, 1, 9);
  write_task(c, 0, 0, 0, 0, 0, 0, true);  // end ofs 0 == base
  c.activate(0, kBase);
  EXPECT_TRUE(c.will_trigger(kBase));
  EXPECT_FALSE(c.will_trigger(kBase - 4));          // below base
  EXPECT_FALSE(c.will_trigger(kBase + 0x40000));    // beyond 16-bit window
}

TEST_F(LiteTest, SnapshotRestoreRoundTrip) {
  write_loop(c, 0, 0, 4, 1, 9);
  write_task(c, 0, 100, 105, 0, 0, 0, true);
  c.activate(0, kBase);
  const auto snap = c.snapshot();
  (void)c.on_fetch(pc_of(105));
  (void)c.on_fetch(pc_of(105));
  EXPECT_EQ(c.snapshot().loop_current[0], 2);
  c.restore(snap);
  EXPECT_EQ(c.snapshot().loop_current[0], 0);
  EXPECT_TRUE(c.active());
  EXPECT_EQ(c.current_task(), 0);
  // Replay after restore produces the original sequence.
  auto ev = c.on_fetch(pc_of(105));
  EXPECT_EQ(ev->rf_writes[0].value, 1);
}

TEST_F(LiteTest, IndexUpdateWrapsAtInt32Max) {
  // A 16-bit loop entry reaches the top of the 32-bit index only through a
  // restored snapshot. kGe 0 continues up to INT32_MAX; the wrapped
  // INT32_MIN fails it, so the second event completes the loop.
  write_loop(c, 0, 0, 0, 1, 9, LoopCond::kGe);
  write_task(c, 0, 100, 105, 0, 0, 0, true);
  c.activate(0, kBase);
  AccelSnapshot snap = c.snapshot();
  snap.loop_current[0] = std::numeric_limits<std::int32_t>::max() - 1;
  c.restore(snap);
  auto ev = c.on_fetch(pc_of(105));
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->redirect, pc_of(100));
  EXPECT_EQ(ev->rf_writes[0].value, std::numeric_limits<std::int32_t>::max());
  ev = c.on_fetch(pc_of(105));
  ASSERT_TRUE(ev.has_value());
  EXPECT_FALSE(ev->redirect.has_value());
  EXPECT_EQ(ev->rf_writes[0].value, 0);  // reinit-on-exit
  EXPECT_FALSE(c.active());
}

TEST_F(LiteTest, TaskEndPastTopOfAddressSpaceWraps) {
  // Table offsets resolve modulo 2^32, as the hardware's PC adder does: a
  // region based just below the top of memory ends at a wrapped PC, and
  // the event there resolves as armed.
  write_loop(c, 0, 0, 4, 1, 9);
  write_task(c, 0, /*start=*/0xF0, /*end=*/0x100, 0, 0, 0, true);
  c.activate(0, 0xFFFFFF00u);
  ASSERT_EQ(c.trigger_pc(), 0x300u);
  auto ev = c.on_fetch(0x300);
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->redirect, 0x2C0u);
  ASSERT_EQ(ev->rf_writes.size(), 1u);
  EXPECT_EQ(ev->rf_writes[0].value, 1);
}

TEST_F(LiteTest, ResetClearsEverything) {
  write_loop(c, 0, 0, 4, 1, 9);
  write_task(c, 0, 100, 105, 0, 0, 0, true);
  c.activate(0, kBase);
  c.reset();
  EXPECT_FALSE(c.active());
  EXPECT_FALSE(c.loop(0).valid);
  EXPECT_FALSE(c.task(0).valid);
}

// ---------------- ZOLCfull ----------------

class FullTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // One loop (0..9, r9) with task0 as its body (100..105).
    write_loop(c, 0, 0, 10, 1, 9);
    write_task(c, 0, 100, 105, 0, 0, 0, true);
  }

  void write_exit(unsigned loop, unsigned slot, std::uint16_t branch_ofs,
                  std::uint8_t next_task, std::uint8_t reinit_mask,
                  bool deactivate) {
    ExitRecord r;
    r.branch_pc_ofs = branch_ofs;
    r.next_task = next_task;
    r.reinit_mask = reinit_mask;
    r.valid = true;
    r.deactivate = deactivate;
    c.init_write(Opcode::kZolwEx0, static_cast<std::uint8_t>(loop * 4 + slot),
                 r.pack_lo());
    c.init_write(Opcode::kZolwEx1, static_cast<std::uint8_t>(loop * 4 + slot),
                 0);
  }

  void write_entry(unsigned idx, std::uint16_t entry_ofs,
                   std::uint8_t next_task, std::uint8_t reinit_mask) {
    EntryRecord r;
    r.entry_pc_ofs = entry_ofs;
    r.next_task = next_task;
    r.reinit_mask = reinit_mask;
    r.valid = true;
    c.init_write(Opcode::kZolwEn0, static_cast<std::uint8_t>(idx), r.pack_lo());
  }

  ZolcController c{ZolcVariant::kFull};
};

TEST_F(FullTest, ExitRecordMatchesAndDeactivates) {
  write_exit(0, 0, /*branch at*/ 103, /*next*/ 0, /*reinit*/ 0x1, true);
  c.activate(0, kBase);
  (void)c.on_fetch(pc_of(105));  // one iteration: index 1

  auto ev = c.on_taken_control(pc_of(103), pc_of(300));
  ASSERT_TRUE(ev.has_value());
  EXPECT_FALSE(c.active());
  ASSERT_EQ(ev->rf_writes.size(), 1u);
  EXPECT_EQ(ev->rf_writes[0].reg, 9);
  EXPECT_EQ(ev->rf_writes[0].value, 0);  // reinit
  EXPECT_EQ(c.zolc_stats().exit_matches, 1u);
}

TEST_F(FullTest, ExitRecordScopedToCurrentLoop) {
  // Record belongs to loop 1, but the current task's loop is 0: no match.
  write_loop(c, 1, 0, 5, 1, 10);
  write_exit(1, 0, 103, 0, 0x2, true);
  c.activate(0, kBase);
  EXPECT_FALSE(c.on_taken_control(pc_of(103), pc_of(300)).has_value());
  EXPECT_TRUE(c.active());
}

TEST_F(FullTest, ExitToEnclosingTaskWithoutDeactivation) {
  // Nest: outer loop 1 (task1 boundary at 110), inner loop 0 (task0).
  // Break from the inner loop jumps to the outer post-segment (task1).
  write_loop(c, 1, 0, 3, 1, 10);
  write_task(c, 1, 90, 110, 1, /*cont=*/1, /*done=*/1, true);
  write_exit(0, 0, /*branch*/ 103, /*next task*/ 1, /*reinit inner*/ 0x1,
             false);
  c.activate(0, kBase);

  auto ev = c.on_taken_control(pc_of(103), pc_of(107));
  ASSERT_TRUE(ev.has_value());
  EXPECT_TRUE(c.active());
  EXPECT_EQ(c.current_task(), 1);
  // Outer boundary still works afterwards.
  auto ev2 = c.on_fetch(pc_of(110));
  ASSERT_TRUE(ev2.has_value());
  EXPECT_EQ(ev2->redirect.value(), pc_of(90));
}

TEST_F(FullTest, SecondSlotMatches) {
  write_exit(0, 0, 200, 0, 0, true);   // unrelated
  write_exit(0, 1, 103, 0, 0x1, true); // the one that should hit
  c.activate(0, kBase);
  EXPECT_TRUE(c.on_taken_control(pc_of(103), pc_of(300)).has_value());
}

TEST_F(FullTest, EntryRecordSwitchesTask) {
  write_entry(0, /*entry at*/ 102, /*task*/ 0, /*reinit*/ 0x1);
  c.activate(0, kBase);
  // A jump from outside landing mid-body.
  auto ev = c.on_taken_control(pc_of(50), pc_of(102));
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(c.current_task(), 0);
  EXPECT_EQ(c.zolc_stats().entry_matches, 1u);
  ASSERT_EQ(ev->rf_writes.size(), 1u);
  EXPECT_EQ(ev->rf_writes[0].value, 0);
}

TEST_F(FullTest, UnmatchedBranchIsIgnored) {
  write_exit(0, 0, 103, 0, 0x1, true);
  c.activate(0, kBase);
  EXPECT_FALSE(c.on_taken_control(pc_of(104), pc_of(300)).has_value());
  EXPECT_TRUE(c.active());
}

TEST_F(FullTest, ReinitMaskOverInvalidLoopTraps) {
  write_exit(0, 0, 103, 0, /*mask loop 5 (invalid)*/ 0x20, true);
  c.activate(0, kBase);
  EXPECT_THROW(c.on_taken_control(pc_of(103), pc_of(300)), SimError);
}

TEST_F(FullTest, RecordsPastTopOfAddressSpaceWrap) {
  // Twin of LiteTest.TaskEndPastTopOfAddressSpaceWraps for the record
  // banks: the branch and entry offsets resolve modulo 2^32 as well.
  write_exit(0, 0, /*branch at*/ 0x50, /*next*/ 0, /*reinit*/ 0x1, true);
  write_entry(0, /*entry at*/ 0x60, /*task*/ 0, /*reinit*/ 0x1);
  c.activate(0, 0xFFFFFF00u);
  auto entry = c.on_taken_control(0x1000, 0x80);  // offset 0x60, wrapped
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(c.zolc_stats().entry_matches, 1u);
  auto exit = c.on_taken_control(0x40, 0x1000);  // offset 0x50, wrapped
  ASSERT_TRUE(exit.has_value());
  EXPECT_EQ(c.zolc_stats().exit_matches, 1u);
  EXPECT_FALSE(c.active());
}

TEST_F(FullTest, InactiveIgnoresRecords) {
  write_exit(0, 0, 103, 0, 0x1, true);
  EXPECT_FALSE(c.on_taken_control(pc_of(103), pc_of(300)).has_value());
}

// ---------------- armed trigger PC: randomized property ----------------

/// The armed PC the controller's observable state implies: the current
/// task's end PC (lite/full) or the uZOLC end register, while active.
std::optional<std::uint32_t> expected_trigger(const ZolcController& c) {
  const ZolcContext ctx = c.save_context();
  if (!ctx.active) return std::nullopt;
  if (ctx.variant == ZolcVariant::kMicro) return ctx.micro.end_pc;
  const TaskEntry& t = ctx.tasks[ctx.current_task];
  if (!t.valid) return std::nullopt;
  return ctx.base + (static_cast<std::uint32_t>(t.end_pc_ofs) << 2);
}

/// Random but mostly well-formed operations over a small table window, so
/// sequences reach active states, continue/done events, cascades, exit and
/// entry matches as well as every trap.
class TriggerFuzzer {
 public:
  TriggerFuzzer(ZolcVariant variant, std::uint32_t seed)
      : c_(variant), rng_(seed) {}

  void run(unsigned steps) {
    for (unsigned i = 0; i < steps; ++i) {
      const std::string op = step();
      check(op + " (step " + std::to_string(i) + ")");
    }
  }

 private:
  unsigned pick(unsigned lo, unsigned hi) {
    return std::uniform_int_distribution<unsigned>(lo, hi)(rng_);
  }
  std::uint32_t pc(unsigned ofs) const { return base_ + ofs * 4; }

  void random_write() {
    const auto idx = static_cast<std::uint8_t>(pick(0, 4));
    if (c_.variant() == ZolcVariant::kMicro) {
      const std::uint32_t values[] = {0, 3, 1, 0, pc(pick(0, 7)),
                                      pc(pick(0, 7)),
                                      pack_micro_ctrl(7, LoopCond::kLt)};
      const auto reg = static_cast<std::uint8_t>(pick(0, 7));
      c_.init_write(Opcode::kZolwU, reg, reg < 7 ? values[reg] : 0);
      return;
    }
    switch (pick(0, c_.variant() == ZolcVariant::kFull ? 4 : 2)) {
      case 0: {
        TaskEntry e;
        e.end_pc_ofs = static_cast<std::uint16_t>(pick(0, 7));
        e.loop_id = static_cast<std::uint8_t>(pick(0, 3));
        e.next_task_cont = static_cast<std::uint8_t>(pick(0, 3));
        e.next_task_done = static_cast<std::uint8_t>(pick(0, 3));
        e.is_last = pick(0, 2) == 0;
        e.valid = pick(0, 5) != 0;
        c_.init_write(Opcode::kZolwTe, idx, e.pack());
        break;
      }
      case 1:
        c_.init_write(Opcode::kZolwTs, idx, pick(0, 7));
        break;
      case 2: {
        LoopEntry e;
        e.initial = 0;
        e.final = static_cast<std::int16_t>(pick(0, 3));
        e.step = 1;
        e.index_rf = static_cast<std::uint8_t>(1 + idx);
        e.valid = pick(0, 5) != 0;
        c_.init_write(Opcode::kZolwLp0, idx, e.pack_word0());
        c_.init_write(Opcode::kZolwLp1, idx, e.pack_word1());
        break;
      }
      case 3: {
        ExitRecord r;
        r.branch_pc_ofs = static_cast<std::uint16_t>(pick(0, 7));
        r.next_task = static_cast<std::uint8_t>(pick(0, 3));
        r.reinit_mask = pick(0, 3);
        r.valid = true;
        r.deactivate = pick(0, 3) == 0;
        c_.init_write(Opcode::kZolwEx0, idx, r.pack_lo());
        break;
      }
      default: {
        EntryRecord r;
        r.entry_pc_ofs = static_cast<std::uint16_t>(pick(0, 7));
        r.next_task = static_cast<std::uint8_t>(pick(0, 3));
        r.reinit_mask = pick(0, 3);
        r.valid = true;
        c_.init_write(Opcode::kZolwEn0, idx, r.pack_lo());
        break;
      }
    }
  }

  /// Performs one random call; returns its name. A SimError leaves the
  /// controller mid-operation (as a trapping program does), so the
  /// state-derived expectation is only checked again after a call that
  /// re-derives the armed PC from scratch.
  std::string step() {
    const unsigned kind = pick(0, 10);
    try {
      switch (kind) {
        case 0:
        case 1:
          random_write();
          return "init_write";
        case 2: {
          base_ = pick(0, 5) == 0 ? 0x1002 : 0x1000 + 0x100 * pick(0, 1);
          c_.activate(static_cast<std::uint8_t>(pick(0, 4)), base_);
          coherent_ = true;
          return "activate";
        }
        case 3:
          c_.deactivate();
          coherent_ = true;
          return "deactivate";
        case 4:
        case 5:
        case 6: {
          const auto trig = c_.trigger_pc();
          c_.on_fetch(trig && pick(0, 3) != 0 ? *trig : pc(pick(0, 7)));
          return "on_fetch";
        }
        case 7:
          c_.on_taken_control(pc(pick(0, 7)), pc(pick(0, 7)));
          return "on_taken_control";
        case 8:
          if (pick(0, 1) == 0) {
            snap_ = c_.snapshot();
            return "snapshot";
          }
          c_.restore(snap_);
          coherent_ = true;
          return "restore";
        case 9:
          if (pick(0, 1) == 0) {
            ctx_ = c_.save_context();
            return "save_context";
          }
          EXPECT_TRUE(c_.restore_context(ctx_).ok());
          coherent_ = true;
          return "restore_context";
        default:
          c_.reset();
          coherent_ = true;
          return "reset";
      }
    } catch (const SimError&) {
      coherent_ = false;
      return "trap";
    }
  }

  void check(const std::string& what) {
    const std::optional<std::uint32_t> trig = c_.trigger_pc();
    if (coherent_) {
      EXPECT_EQ(trig, expected_trigger(c_)) << what;
    }
    const std::uint32_t t = trig.value_or(base_ + 4);
    for (const std::uint32_t p : {t, t - 4, t + 4, base_, 0x1000u}) {
      EXPECT_EQ(c_.will_trigger(p), trig == p) << what << " p=" << p;
    }
  }

  ZolcController c_;
  std::mt19937 rng_;
  std::uint32_t base_ = 0x1000;
  AccelSnapshot snap_ = c_.snapshot();
  ZolcContext ctx_ = c_.save_context();
  bool coherent_ = true;
};

TEST(TriggerProperty, WillTriggerMatchesTriggerPcOnEveryVariant) {
  for (const ZolcVariant variant :
       {ZolcVariant::kMicro, ZolcVariant::kLite, ZolcVariant::kFull}) {
    for (std::uint32_t seed = 1; seed <= 40; ++seed) {
      SCOPED_TRACE(std::string(variant_name(variant)) +
                   " seed=" + std::to_string(seed));
      TriggerFuzzer(variant, seed).run(400);
    }
  }
}

}  // namespace
}  // namespace zolcsim::zolc
