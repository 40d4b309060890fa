// End-to-end geometry tests: extended-geometry controllers, lowering
// against non-paper capacities (the deep-nest kernels), the paper geometry
// as a strict no-op, and the sweep engine's geometry axis.
#include <gtest/gtest.h>

#include "codegen/lower.hpp"
#include "harness/sweep.hpp"
#include "kernels/kernels.hpp"
#include "sim_test_util.hpp"
#include "zolc/area_model.hpp"
#include "zolc/controller.hpp"

namespace zolcsim {
namespace {

using codegen::MachineKind;
using test::compile_and_run;
using zolc::ZolcController;
using zolc::ZolcGeometry;
using zolc::ZolcVariant;

// ---------------- controller with extended geometry ----------------

TEST(GeometryController, TablesAreSizedByTheGeometry) {
  const ZolcGeometry g{32, 16, 4, 4};
  ZolcController c(ZolcVariant::kFull, g);
  // Loop 12 exists here but not on the paper controller.
  zolc::LoopEntry e;
  e.initial = 0;
  e.final = 3;
  e.step = 1;
  e.index_rf = 9;
  e.valid = true;
  c.init_write(isa::Opcode::kZolwLp0, 12, e.pack_word0());
  c.init_write(isa::Opcode::kZolwLp1, 12, e.pack_word1());
  EXPECT_TRUE(c.loop(12).valid);
  EXPECT_THROW(c.init_write(isa::Opcode::kZolwLp0, 16, 0), SimError);

  ZolcController paper(ZolcVariant::kFull);
  EXPECT_THROW(paper.init_write(isa::Opcode::kZolwLp0, 12, e.pack_word0()),
               SimError);
}

TEST(GeometryController, TwelveLoopCascadeRunsAndSnapshots) {
  // A 12-deep perfect nest of 2-trip loops sharing one boundary: the
  // cascade walks all 12 tables on the final event.
  const ZolcGeometry g{32, 12, 0, 0};
  ZolcController c(ZolcVariant::kLite, g);
  constexpr std::uint32_t kBase = 0x1000;
  for (unsigned l = 0; l < 12; ++l) {
    zolc::LoopEntry e;
    e.initial = 0;
    e.final = 2;
    e.step = 1;
    e.index_rf = static_cast<std::uint8_t>(1 + l);
    e.valid = true;
    c.init_write(isa::Opcode::kZolwLp0, static_cast<std::uint8_t>(l),
                 e.pack_word0());
    c.init_write(isa::Opcode::kZolwLp1, static_cast<std::uint8_t>(l),
                 e.pack_word1());
    // Task l tests loop (11 - l): task 0 is the innermost loop's.
    zolc::TaskEntry t;
    t.end_pc_ofs = 100;
    t.loop_id = static_cast<std::uint8_t>(11 - l);
    t.next_task_cont = 0;
    t.next_task_done = static_cast<std::uint8_t>(l + 1);
    t.is_last = l == 11;
    t.valid = true;
    c.init_write(isa::Opcode::kZolwTe, static_cast<std::uint8_t>(l),
                 t.pack(g));
    c.init_write(isa::Opcode::kZolwTs, static_cast<std::uint8_t>(l), 50);
  }
  c.activate(0, kBase);
  const auto snap = c.snapshot();
  std::uint64_t events = 0;
  while (c.active()) {
    ASSERT_TRUE(c.will_trigger(kBase + 100 * 4));
    (void)c.on_fetch(kBase + 100 * 4);
    ++events;
    ASSERT_LT(events, 10'000u);
  }
  EXPECT_EQ(events, 1u << 12);  // 2^12 boundary events for 2-trip loops
  EXPECT_EQ(c.zolc_stats().max_cascade_depth, 12u);

  // Snapshot/restore carries all 12 live indices.
  c.restore(snap);
  EXPECT_TRUE(c.active());
  const zolc::AccelSnapshot restored = c.snapshot();
  for (unsigned l = 0; l < 12; ++l) EXPECT_EQ(restored.loop_current[l], 0);
}

TEST(GeometryController, RejectsPackedIdsBeyondTheTables) {
  // 12 loops round up to 4 id bits: encodings 12..15 decode but have no
  // table entry behind them and must trap at the write port, not at the
  // (hot, unchecked) fetch path.
  const ZolcGeometry g{32, 12, 0, 0};
  ZolcController c(ZolcVariant::kLite, g);
  zolc::TaskEntry t;
  t.end_pc_ofs = 100;
  t.loop_id = 15;
  t.valid = true;
  EXPECT_THROW(c.init_write(isa::Opcode::kZolwTe, 0, t.pack(g)),
               SimError);
  t.loop_id = 11;
  c.init_write(isa::Opcode::kZolwTe, 0, t.pack(g));  // in range: accepted
  EXPECT_EQ(c.task(0).loop_id, 11u);

  // Same for task ids in exit records of a non-power-of-two task count.
  const ZolcGeometry g20{20, 8, 4, 4};
  ASSERT_TRUE(g20.valid());
  ZolcController full(ZolcVariant::kFull, g20);
  zolc::ExitRecord r;
  r.branch_pc_ofs = 5;
  r.next_task = 25;  // 5 id bits admit it; table has 20 entries
  r.valid = true;
  EXPECT_THROW(full.init_write(isa::Opcode::kZolwEx0, 0, r.pack_lo(g20)),
               SimError);
}

// ---------------- lowering against geometries ----------------

TEST(GeometryLowering, PaperGeometryIsTheDefault) {
  const auto* kernel = kernels::find_kernel("matmul");
  ASSERT_NE(kernel, nullptr);
  const kernels::KernelEnv env;
  const auto implicit =
      codegen::lower(kernel->build(env), MachineKind::kZolcLite, env.code_base);
  const auto explicit_paper =
      codegen::lower(kernel->build(env), MachineKind::kZolcLite, env.code_base,
                     ZolcGeometry::paper(ZolcVariant::kLite));
  ASSERT_TRUE(implicit.ok());
  ASSERT_TRUE(explicit_paper.ok());
  ASSERT_EQ(implicit.value().code.size(), explicit_paper.value().code.size());
  for (std::size_t i = 0; i < implicit.value().code.size(); ++i) {
    EXPECT_EQ(implicit.value().code[i], explicit_paper.value().code[i]) << i;
  }
}

TEST(GeometryLowering, DeepNestFullyHardwareManagedUnderExtendedGeometry) {
  // The acceptance scenario: a >8-deep nest with zero software loop
  // overhead once the geometry provides the entries.
  const auto result = compile_and_run("deepnest10", MachineKind::kZolcLite, {},
                                      ZolcGeometry{32, 12, 0, 0});
  ASSERT_TRUE(result.ok()) << result.error().to_string();
  EXPECT_EQ(result.value().hw_loops, 10u);
  EXPECT_EQ(result.value().sw_loops, 0u);
  EXPECT_GT(result.value().zolc_stats.continue_events, 0u);

  // At the paper geometry the same kernel still runs, demoting two levels.
  const auto paper = compile_and_run("deepnest10", MachineKind::kZolcLite);
  ASSERT_TRUE(paper.ok()) << paper.error().to_string();
  EXPECT_EQ(paper.value().hw_loops, 8u);
  EXPECT_EQ(paper.value().sw_loops, 2u);
  EXPECT_GT(paper.value().stats.cycles, result.value().stats.cycles);
}

TEST(GeometryLowering, TinyGeometryDemotesGracefully) {
  const auto result = compile_and_run("tiled_mm", MachineKind::kZolcLite, {},
                                      ZolcGeometry{8, 2, 0, 0});
  ASSERT_TRUE(result.ok()) << result.error().to_string();
  EXPECT_EQ(result.value().hw_loops, 2u);
  EXPECT_EQ(result.value().sw_loops, 4u);
}

TEST(GeometryLowering, ExtendedKernelsVerifyOnEveryMachine) {
  for (const auto& kernel : kernels::extended_kernel_registry()) {
    for (const MachineKind machine : codegen::kAllMachines) {
      const auto result = compile_and_run(kernel->name(), machine);
      ASSERT_TRUE(result.ok()) << result.error().to_string();
      EXPECT_GT(result.value().stats.cycles, 0u);
    }
  }
}

TEST(GeometryLowering, WideRecordGeometryRunsZolcFullEndToEnd) {
  // 16 loops push exit records past one init word (record_words() == 2):
  // the zolw.ex1 emission path and the controller's hi-word unpack must
  // survive a real multi-exit run. me_tss carries the suite's break-out.
  const ZolcGeometry wide{32, 16, 4, 4};
  ASSERT_EQ(wide.record_words(), 2u);
  const auto result = compile_and_run("me_tss", MachineKind::kZolcFull, {}, wide);
  ASSERT_TRUE(result.ok()) << result.error().to_string();
  const auto paper = compile_and_run("me_tss", MachineKind::kZolcFull);
  ASSERT_TRUE(paper.ok()) << paper.error().to_string();
  // Identical loop structure, but each exit record costs one extra init
  // write (the hi word).
  EXPECT_EQ(result.value().hw_loops, paper.value().hw_loops);
  EXPECT_GT(result.value().zolc_stats.table_writes,
            paper.value().zolc_stats.table_writes);
}

TEST(GeometryLowering, ProgramBeyondThePcWindowIsRejected) {
  // pc_ofs_bits = 8 addresses 256 words; a ~310-word program must be
  // rejected at lowering instead of silently aliasing packed offsets.
  codegen::KernelBuilder kb;
  kb.for_count(1, 0, 4, 1, [&] {
    for (int i = 0; i < 300; ++i) kb.op(isa::build::nop());
  });
  const auto kernel = kb.take();
  const ZolcGeometry narrow{32, 8, 0, 0, 8};
  ASSERT_TRUE(narrow.valid());
  const auto lowered =
      codegen::lower(kernel, MachineKind::kZolcLite, 0x1000, narrow);
  ASSERT_FALSE(lowered.ok());
  EXPECT_EQ(lowered.error().code, ErrorCode::kCapacity);
  EXPECT_NE(lowered.error().message.find("PC-offset window"),
            std::string::npos);
}

TEST(GeometryLowering, InvalidGeometryIsRejected) {
  const auto* kernel = kernels::find_kernel("dotprod");
  ASSERT_NE(kernel, nullptr);
  const kernels::KernelEnv env;
  const auto lowered =
      codegen::lower(kernel->build(env), MachineKind::kZolcLite, env.code_base,
                     ZolcGeometry{32, 64, 4, 4});
  EXPECT_FALSE(lowered.ok());
  const auto experiment = compile_and_run("dotprod", MachineKind::kZolcLite,
                                          {}, ZolcGeometry{32, 64, 4, 4});
  EXPECT_FALSE(experiment.ok());
}

// ---------------- sweep geometry axis ----------------

TEST(GeometrySweep, AxisProducesPerGeometryCells) {
  harness::SweepSpec spec;
  spec.kernels = {"deepnest10"};
  spec.machines = {MachineKind::kXrDefault, MachineKind::kZolcLite};
  spec.geometries = {ZolcGeometry{}, ZolcGeometry{32, 12, 0, 0}};
  spec.threads = 2;
  const auto swept = harness::run_sweep(spec);
  ASSERT_TRUE(swept.ok()) << swept.error().to_string();
  const harness::SweepReport& report = swept.value();
  ASSERT_EQ(report.cells.size(), 4u);
  EXPECT_TRUE(report.shown(harness::sweep_axis(harness::Axis::kGeometry)));
  // Paper geometry: 8 hw loops; extended: all 10.
  const harness::CellCoord lite_paper{.machine = 1};
  const harness::CellCoord lite_wide{.machine = 1, .geometry = 1};
  EXPECT_EQ(report.at(lite_paper).hw_loops, 8u);
  EXPECT_EQ(report.at(lite_wide).hw_loops, 10u);
  EXPECT_LT(report.at(lite_wide).stats.cycles,
            report.at(lite_paper).stats.cycles);
  // The baseline machine ignores the geometry.
  EXPECT_EQ(report.at({}).stats.cycles,
            report.at({.geometry = 1}).stats.cycles);
  // The geometry column appears in the rendered CSV and JSON.
  EXPECT_NE(report.to_csv().find("geometry"), std::string::npos);
  EXPECT_NE(report.to_csv().find("32t-12l-0x-0e"), std::string::npos);
  EXPECT_NE(report.to_json().find("32t-12l-0x-0e"), std::string::npos);
}

TEST(GeometrySweep, DefaultSweepKeepsTheHistoricalSchema) {
  harness::SweepSpec spec;
  spec.kernels = {"dotprod"};
  spec.machines = {MachineKind::kXrDefault, MachineKind::kZolcLite};
  spec.threads = 1;
  const auto swept = harness::run_sweep(spec);
  ASSERT_TRUE(swept.ok()) << swept.error().to_string();
  EXPECT_FALSE(
      swept.value().shown(harness::sweep_axis(harness::Axis::kGeometry)));
  EXPECT_EQ(swept.value().to_csv().find("geometry"), std::string::npos);
  EXPECT_EQ(swept.value().to_json().find("geometry"), std::string::npos);
}

// ---------------- area model coupling ----------------

TEST(GeometryArea, StorageScalesWithTheSweepAxis) {
  const auto paper = zolc::area_model(ZolcVariant::kLite);
  const auto deep =
      zolc::area_model(ZolcVariant::kLite, ZolcGeometry{32, 12, 0, 0});
  EXPECT_EQ(paper.storage_bytes, 258u);
  EXPECT_EQ(deep.storage_bits - paper.storage_bits, 4u * 64);
  EXPECT_GT(deep.total_gates, paper.total_gates);
}

}  // namespace
}  // namespace zolcsim
