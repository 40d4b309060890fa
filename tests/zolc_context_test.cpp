// ZolcContext tests: randomized restore/save round-trips on the controller
// across the same geometry set as the table-codec tests (including the wide
// geometry whose exit records spill into a hi word), the typed restore
// surfaces (kBadContext), and the modeled context-switch cost.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/bitutil.hpp"
#include "cpu/exec.hpp"
#include "zolc/context.hpp"
#include "zolc/controller.hpp"

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

/// A randomized context whose every field fits its table field's encoded
/// width under `g`, sized to the variant-restricted geometry.
ZolcContext random_context(ZolcVariant variant, const ZolcGeometry& g,
                           Rng& rng) {
  ZolcContext ctx;
  ctx.variant = variant;
  ctx.geometry = g.for_variant(variant);
  const ZolcGeometry& geom = ctx.geometry;
  for (unsigned i = 0; i < geom.max_tasks; ++i) {
    TaskEntry t;
    t.end_pc_ofs = static_cast<std::uint16_t>(rng.field(geom.pc_ofs_bits));
    t.loop_id = static_cast<std::uint8_t>(rng.next() % geom.max_loops);
    t.next_task_cont = static_cast<std::uint8_t>(rng.field(8));
    t.next_task_done = static_cast<std::uint8_t>(rng.field(8));
    t.is_last = rng.field(1) != 0;
    t.valid = rng.field(1) != 0;
    ctx.tasks.push_back(t);
    ctx.task_start.push_back(
        static_cast<std::uint16_t>(rng.field(geom.pc_ofs_bits)));
  }
  for (unsigned i = 0; i < geom.max_loops; ++i) {
    LoopEntry l;
    l.initial = static_cast<std::int16_t>(rng.field(16));
    l.final = static_cast<std::int16_t>(rng.field(16));
    l.step = static_cast<std::int8_t>(rng.field(8));
    l.index_rf = static_cast<std::uint8_t>(rng.field(5));
    l.cond = static_cast<LoopCond>(rng.field(2));
    l.valid = rng.field(1) != 0;
    ctx.loops.push_back(l);
    ctx.loop_current.push_back(static_cast<std::int32_t>(rng.next()));
  }
  for (unsigned i = 0; i < geom.exit_record_count(); ++i) {
    ExitRecord r;
    r.branch_pc_ofs = static_cast<std::uint16_t>(rng.field(geom.pc_ofs_bits));
    r.next_task = static_cast<std::uint8_t>(rng.field(8));
    r.reinit_mask = rng.field(geom.max_loops);
    r.valid = rng.field(1) != 0;
    r.deactivate = rng.field(1) != 0;
    ctx.exits.push_back(r);
  }
  for (unsigned i = 0; i < geom.entry_record_count(); ++i) {
    EntryRecord r;
    r.entry_pc_ofs = static_cast<std::uint16_t>(rng.field(geom.pc_ofs_bits));
    r.next_task = static_cast<std::uint8_t>(rng.field(8));
    r.reinit_mask = rng.field(geom.max_loops);
    r.valid = rng.field(1) != 0;
    ctx.entries.push_back(r);
  }
  ctx.micro.initial = static_cast<std::int32_t>(rng.next());
  ctx.micro.final = static_cast<std::int32_t>(rng.next());
  ctx.micro.step = static_cast<std::int32_t>(rng.next());
  ctx.micro.start_pc = rng.next();
  ctx.micro.end_pc = rng.next();
  ctx.micro.index_rf = static_cast<std::uint8_t>(rng.field(5));
  ctx.micro.cond = static_cast<LoopCond>(rng.field(2));
  ctx.base = rng.next();
  ctx.current_task =
      geom.max_tasks == 0
          ? 0
          : static_cast<std::uint8_t>(rng.next() % geom.max_tasks);
  ctx.active = rng.field(1) != 0;
  ctx.stats.continue_events = rng.next();
  ctx.stats.done_events = rng.next();
  ctx.stats.cascade_chains = rng.next();
  ctx.stats.max_cascade_depth = rng.field(6);
  ctx.stats.exit_matches = rng.next();
  ctx.stats.entry_matches = rng.next();
  ctx.stats.table_writes = rng.next();
  return ctx;
}

// ---------------- randomized round-trips ----------------

TEST(ContextRoundTrip, RestoreThenSaveIsIdentityAcrossGeometries) {
  for (const ZolcGeometry& g : test_geometries()) {
    ASSERT_TRUE(g.valid()) << g.label();
    for (const ZolcVariant variant :
         {ZolcVariant::kMicro, ZolcVariant::kLite, ZolcVariant::kFull}) {
      Rng rng(0xC7E51101u + g.max_loops * 31 + g.max_tasks +
              static_cast<std::uint32_t>(variant));
      const std::string label =
          g.label() + "/" + std::string(variant_name(variant));
      ZolcController controller(variant, g);
      for (int i = 0; i < 16; ++i) {
        const ZolcContext ctx = random_context(variant, g, rng);
        ASSERT_TRUE(controller.restore_context(ctx).ok()) << label;
        EXPECT_EQ(controller.save_context(), ctx) << label;
      }
    }
  }
}

// ---------------- controller restore surfaces ----------------

/// Programs loop `id` of a lite/full controller via the init-write bus.
void write_loop(ZolcController& c, unsigned id, std::int16_t initial,
                std::int16_t final, std::int8_t step, std::uint8_t index_rf) {
  LoopEntry e;
  e.initial = initial;
  e.final = final;
  e.step = step;
  e.index_rf = index_rf;
  e.cond = LoopCond::kLe;
  e.valid = true;
  c.init_write(isa::Opcode::kZolwLp0, static_cast<std::uint8_t>(id),
               e.pack_word0());
  c.init_write(isa::Opcode::kZolwLp1, static_cast<std::uint8_t>(id),
               e.pack_word1());
}

void write_task(ZolcController& c, unsigned id, std::uint16_t start_ofs,
                std::uint16_t end_ofs, std::uint8_t loop_id) {
  TaskEntry e;
  e.end_pc_ofs = end_ofs;
  e.loop_id = loop_id;
  e.next_task_cont = static_cast<std::uint8_t>(id);
  e.next_task_done = static_cast<std::uint8_t>(id);
  e.is_last = true;
  e.valid = true;
  c.init_write(isa::Opcode::kZolwTe, static_cast<std::uint8_t>(id), e.pack());
  c.init_write(isa::Opcode::kZolwTs, static_cast<std::uint8_t>(id),
               start_ofs);
}

TEST(ControllerContext, SaveRestoreRoundTripsLiveState) {
  ZolcController controller(ZolcVariant::kFull);
  write_loop(controller, 0, 0, 9, 1, 3);
  write_task(controller, 0, 2, 10, 0);
  controller.activate(0, 0x1000);
  const ZolcContext saved = controller.save_context();
  EXPECT_TRUE(saved.active);
  EXPECT_EQ(saved.base, 0x1000u);

  // Clobber everything, then restore: the controller must be back exactly.
  controller.reset();
  EXPECT_FALSE(controller.active());
  ASSERT_TRUE(controller.restore_context(saved).ok());
  EXPECT_EQ(controller.save_context(), saved);
  EXPECT_TRUE(controller.active());
  EXPECT_EQ(controller.zolc_stats(), saved.stats);
}

TEST(ControllerContext, RestoreRejectsWrongGeometryAndVariant) {
  ZolcController controller(ZolcVariant::kFull);
  ZolcController wide(ZolcVariant::kFull, ZolcGeometry{32, 16, 4, 4});
  const ZolcContext foreign = wide.save_context();
  auto restored = controller.restore_context(foreign);
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.error().code, ErrorCode::kBadContext);

  ZolcController lite(ZolcVariant::kLite);
  auto cross = lite.restore_context(controller.save_context());
  ASSERT_FALSE(cross.ok());
  EXPECT_EQ(cross.error().code, ErrorCode::kBadContext);

  // Live indices that do not match the loop table are rejected too.
  ZolcContext short_indices = controller.save_context();
  short_indices.loop_current.pop_back();
  auto mismatched = controller.restore_context(short_indices);
  ASSERT_FALSE(mismatched.ok());
  EXPECT_EQ(mismatched.error().code, ErrorCode::kBadContext);

  // The rejected restore must leave the target untouched.
  EXPECT_EQ(controller.save_context(), ZolcController(ZolcVariant::kFull)
                                           .save_context());
}

TEST(ControllerContext, TryRestoreRejectsBadSnapshotLoopCount) {
  ZolcController controller(ZolcVariant::kFull);  // 8-loop geometry
  AccelSnapshot snapshot = controller.snapshot();
  ASSERT_EQ(snapshot.loop_count, 8u);
  snapshot.loop_count = 3;  // saved from a different geometry
  auto restored = controller.try_restore(snapshot);
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.error().code, ErrorCode::kBadContext);
  // The untyped virtual surface turns the same mismatch into a SimError.
  EXPECT_THROW(controller.restore(snapshot), SimError);
  // A matching snapshot restores cleanly.
  EXPECT_TRUE(controller.try_restore(controller.snapshot()).ok());
}

// ---------------- modeled switch cost ----------------

TEST(ContextCost, MicroCostIsFixed) {
  ZolcController controller(ZolcVariant::kMicro);
  const ContextSwitchCost cost =
      context_switch_cost(controller.save_context());
  EXPECT_EQ(cost.save_words, 2u);
  EXPECT_EQ(cost.restore_words, 8u);
  EXPECT_EQ(cost.total_cycles(), 10u);
}

TEST(ContextCost, RestoreCostTracksProgrammedState) {
  ZolcController controller(ZolcVariant::kFull);
  const ContextSwitchCost empty =
      context_switch_cost(controller.save_context());
  // Nothing programmed: no loop indices to save, only the base and the
  // position/status word to restore.
  EXPECT_EQ(empty.save_words, 1u);
  EXPECT_EQ(empty.restore_words, 2u);

  write_loop(controller, 0, 0, 9, 1, 3);
  write_loop(controller, 1, 0, 4, 1, 4);
  const ContextSwitchCost programmed =
      context_switch_cost(controller.save_context());
  // Two valid loops: save carries their index copies; restore replays their
  // init words plus the live state.
  EXPECT_EQ(programmed.save_words, 3u);
  EXPECT_EQ(programmed.restore_words, 2u * 2 + 2 + 2);
  EXPECT_GT(programmed.restore_words, programmed.save_words);
}

}  // namespace
}  // namespace zolcsim::zolc
