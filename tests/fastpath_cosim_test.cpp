// Fast-path equivalence suite: the loop-summary tier (Iss::set_fast_path)
// must be architecturally invisible. Part one co-simulates every kernel in
// both registries under baseline and fast ISS and demands identical
// register files, memory images, instruction counts, ZOLC statistics, and
// controller snapshots, and pins the tier's exact counters on the paper
// suite. Part two drives each typed BailoutReason with a hand-built ZOLC
// program (or the validation seam) and checks that the decline is counted
// AND that the architectural state still matches the baseline exactly.
// Part three pins the per-run statistics reset.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/strings.hpp"
#include "cpu/iss.hpp"
#include "flow/compiled_unit.hpp"
#include "flow/run.hpp"
#include "flow/workload.hpp"
#include "kernels/kernels.hpp"
#include "sim_test_util.hpp"
#include "zolc/controller.hpp"

namespace zolcsim {
namespace {

namespace b = isa::build;
using codegen::MachineKind;
using cpu::BailoutReason;
using cpu::FastPathStats;
using isa::Instruction;
using isa::Opcode;
using zolc::LoopCond;
using zolc::LoopEntry;
using zolc::TaskEntry;
using zolc::ZolcController;
using zolc::ZolcVariant;

// ---------------- part one: whole-kernel co-simulation ----------------

/// One ISS run of a compiled unit, keeping everything the equivalence
/// check needs to look at (the workload owns the final memory image). A
/// `warm` run executes on a copy-on-write view of the unit's prepared image,
/// so its first store to each page privatizes a baseline page.
struct TierRun {
  flow::Workload workload;
  cpu::IssStats stats;
  FastPathStats fastpath;
  cpu::RegFile regs;
  zolc::ZolcStats zolc_stats;
  zolc::AccelSnapshot snapshot;
};

TierRun run_tier(const flow::CompiledUnit& unit, bool fast, bool warm) {
  TierRun out{warm ? flow::Workload::prepare_warm(unit)
                   : flow::Workload::prepare(unit),
              {}, {}, {}, {}, {}};
  std::unique_ptr<ZolcController> controller;
  if (const auto variant = codegen::machine_zolc_variant(unit.machine())) {
    controller = std::make_unique<ZolcController>(*variant, unit.geometry());
  }
  cpu::Iss iss(out.workload.memory());
  iss.set_accelerator(controller.get());
  iss.set_code_image(unit.decoded());
  iss.set_fast_path(fast);
  iss.set_pc(unit.program().base);
  iss.run(50'000'000);
  EXPECT_TRUE(iss.halted());
  out.stats = iss.stats();
  out.fastpath = iss.fastpath_stats();
  out.regs = iss.regs();
  if (controller) {
    out.zolc_stats = controller->zolc_stats();
    out.snapshot = controller->snapshot();
  }
  return out;
}

/// Runs `kernel` x `machine` under both tiers and checks every piece of
/// architectural state. The baseline tier runs on a cold image and the fast
/// tier on a warm one, so replayed stores privatize baseline pages that
/// replayed loads read next. Returns the fast tier's counters so the caller can
/// assert the suite actually replayed something.
FastPathStats cosim(const kernels::Kernel& kernel, MachineKind machine,
                    zolc::ZolcGeometry geometry = {}) {
  flow::CompileSpec spec;
  spec.kernel = std::string(kernel.name());
  spec.machine = machine;
  spec.geometry = geometry;
  const auto unit = flow::CompiledUnit::compile(kernel, spec);
  EXPECT_TRUE(unit.ok()) << unit.error().to_string();
  if (!unit.ok()) return {};

  const TierRun base = run_tier(unit.value(), /*fast=*/false, /*warm=*/false);
  const TierRun fast = run_tier(unit.value(), /*fast=*/true, /*warm=*/true);
  const std::string label = std::string(kernel.name()) + " on " +
                            std::string(codegen::machine_name(machine));

  EXPECT_TRUE(fast.regs == base.regs) << label << ": register file diverged";
  EXPECT_TRUE(fast.workload.memory() == base.workload.memory())
      << label << ": memory image diverged";
  EXPECT_EQ(fast.stats.instructions, base.stats.instructions) << label;
  EXPECT_EQ(fast.stats.taken_control, base.stats.taken_control) << label;
  EXPECT_EQ(fast.stats.zolc_fetch_events, base.stats.zolc_fetch_events)
      << label;
  EXPECT_EQ(fast.stats.zolc_resolution_events,
            base.stats.zolc_resolution_events)
      << label;
  EXPECT_TRUE(fast.zolc_stats == base.zolc_stats)
      << label << ": ZOLC statistics diverged";
  EXPECT_TRUE(fast.snapshot == base.snapshot)
      << label << ": controller snapshot diverged";
  // The baseline tier must never touch the summarizer.
  EXPECT_TRUE(base.fastpath == FastPathStats{}) << label;

  const auto base_ok = base.workload.verify();
  const auto fast_ok = fast.workload.verify();
  EXPECT_TRUE(base_ok.ok()) << label << ": " << base_ok.error().to_string();
  EXPECT_TRUE(fast_ok.ok()) << label << ": " << fast_ok.error().to_string();
  return fast.fastpath;
}

TEST(FastPathCosim, PaperSuiteMatchesBaselineOnEveryMachine) {
  std::uint64_t replayed = 0;
  for (const auto& kernel : kernels::kernel_registry()) {
    for (const MachineKind machine :
         {MachineKind::kUZolc, MachineKind::kZolcLite, MachineKind::kZolcFull}) {
      replayed += cosim(*kernel, machine).replayed_instructions;
    }
  }
  // The tier must have actually engaged somewhere, or this test proves
  // nothing about replay.
  EXPECT_GT(replayed, 0u);
}

TEST(FastPathCosim, ExtendedSuiteMatchesBaselineOnDeepGeometries) {
  std::uint64_t replayed = 0;
  std::uint64_t engagements = 0;
  for (const auto& kernel : kernels::extended_kernel_registry()) {
    const FastPathStats lite =
        cosim(*kernel, MachineKind::kZolcLite, {32, 16, 0, 0, 16});
    const FastPathStats full =
        cosim(*kernel, MachineKind::kZolcFull, {32, 16, 4, 4, 16});
    replayed += lite.replayed_instructions + full.replayed_instructions;
    engagements += lite.engagements + full.engagements;
  }
  // Deep nests are the fast path's home turf: it must engage and carry the
  // bulk of the execution, not just match while declining.
  EXPECT_GT(engagements, 0u);
  EXPECT_GT(replayed, 10'000u);
}

/// Exact fast-path counters for one paper kernel at scale 1. Cosim checks
/// architectural state only, so these pin the tier's engagement decisions:
/// where it engages, how much it replays, and why it declines.
struct PinnedCounters {
  const char* kernel;
  MachineKind machine;
  std::uint64_t preempt_every;  ///< 0 = uninterrupted
  std::uint64_t attempts;
  std::uint64_t engagements;
  std::uint64_t replayed_instructions;
  std::uint64_t replayed_backedges;
  std::array<std::uint64_t, cpu::kNumBailoutReasons> bailouts;
};

TEST(FastPathCounters, PaperSuiteCountersArePinned) {
  // Bailout columns follow BailoutReason order: short_loop, control_flow,
  // non_affine_update, exit_record, accel_mutation, trap,
  // self_modifying_store, overlapping_store, validation_mismatch.
  const std::vector<PinnedCounters> pinned = {
      {"dotprod", MachineKind::kUZolc, 0, 1, 1, 315, 63, {0, 0, 0, 0, 0, 0, 0, 0, 0}},
      {"dotprod", MachineKind::kUZolc, 13, 25, 24, 190, 38, {1, 0, 0, 0, 0, 0, 0, 0, 0}},
      {"dotprod", MachineKind::kZolcLite, 0, 1, 1, 315, 63, {0, 0, 0, 0, 0, 0, 0, 0, 0}},
      {"dotprod", MachineKind::kZolcLite, 13, 25, 24, 190, 38, {1, 0, 0, 0, 0, 0, 0, 0, 0}},
      {"vecmax", MachineKind::kUZolc, 0, 63, 0, 0, 0, {0, 63, 0, 0, 0, 0, 0, 0, 0}},
      {"vecmax", MachineKind::kUZolc, 13, 63, 0, 0, 0, {0, 58, 0, 0, 0, 0, 0, 0, 0}},
      {"vecmax", MachineKind::kZolcLite, 0, 63, 0, 0, 0, {0, 63, 0, 0, 0, 0, 0, 0, 0}},
      {"vecmax", MachineKind::kZolcLite, 13, 63, 0, 0, 0, {0, 57, 0, 0, 0, 0, 0, 0, 0}},
      {"fir", MachineKind::kUZolc, 0, 32, 32, 2400, 480, {0, 0, 0, 0, 0, 0, 0, 0, 0}},
      {"fir", MachineKind::kUZolc, 13, 216, 168, 1320, 264, {36, 0, 0, 0, 0, 0, 0, 0, 0}},
      {"fir", MachineKind::kZolcLite, 0, 1, 1, 2744, 543, {0, 0, 0, 0, 0, 0, 0, 0, 0}},
      {"fir", MachineKind::kZolcLite, 13, 244, 199, 1480, 299, {36, 0, 0, 0, 0, 0, 0, 0, 0}},
      {"iir_biquad", MachineKind::kUZolc, 0, 64, 64, 4224, 192, {0, 0, 0, 0, 0, 0, 0, 0, 0}},
      {"iir_biquad", MachineKind::kUZolc, 13, 192, 0, 0, 0, {118, 0, 0, 0, 0, 0, 0, 0, 0}},
      {"iir_biquad", MachineKind::kZolcLite, 0, 1, 1, 5990, 319, {0, 0, 0, 0, 0, 0, 0, 0, 0}},
      {"iir_biquad", MachineKind::kZolcLite, 13, 266, 54, 108, 54, {118, 0, 0, 0, 0, 0, 0, 0, 0}},
      {"crc32", MachineKind::kUZolc, 0, 128, 128, 4480, 896, {0, 0, 0, 0, 0, 0, 0, 0, 0}},
      {"crc32", MachineKind::kUZolc, 13, 472, 276, 2120, 424, {147, 0, 0, 0, 0, 0, 0, 0, 0}},
      {"crc32", MachineKind::kZolcLite, 0, 1, 1, 5496, 1023, {0, 0, 0, 0, 0, 0, 0, 0, 0}},
      {"crc32", MachineKind::kZolcLite, 13, 550, 325, 2512, 473, {147, 0, 0, 0, 0, 0, 0, 0, 0}},
      {"matmul", MachineKind::kUZolc, 0, 64, 64, 2240, 448, {0, 0, 0, 0, 0, 0, 0, 0, 0}},
      {"matmul", MachineKind::kUZolc, 13, 238, 137, 1050, 210, {75, 0, 0, 0, 0, 0, 0, 0, 0}},
      {"matmul", MachineKind::kZolcLite, 0, 1, 1, 2998, 575, {0, 0, 0, 0, 0, 0, 0, 0, 0}},
      {"matmul", MachineKind::kZolcLite, 13, 296, 202, 1313, 280, {74, 0, 0, 0, 0, 0, 0, 0, 0}},
      {"conv2d", MachineKind::kUZolc, 0, 600, 0, 0, 0, {600, 0, 0, 0, 0, 0, 0, 0, 0}},
      {"conv2d", MachineKind::kUZolc, 13, 600, 0, 0, 0, {554, 0, 0, 0, 0, 0, 0, 0, 0}},
      {"conv2d", MachineKind::kZolcLite, 0, 3, 1, 5977, 997, {2, 0, 0, 0, 0, 0, 0, 0, 0}},
      {"conv2d", MachineKind::kZolcLite, 13, 813, 171, 969, 187, {474, 0, 0, 0, 0, 0, 0, 0, 0}},
      {"sobel", MachineKind::kUZolc, 0, 10, 10, 2880, 90, {0, 0, 0, 0, 0, 0, 0, 0, 0}},
      {"sobel", MachineKind::kUZolc, 13, 90, 0, 0, 0, {18, 0, 0, 0, 0, 0, 0, 0, 0}},
      {"sobel", MachineKind::kZolcLite, 0, 1, 1, 3168, 99, {0, 0, 0, 0, 0, 0, 0, 0, 0}},
      {"sobel", MachineKind::kZolcLite, 13, 99, 0, 0, 0, {19, 0, 0, 0, 0, 0, 0, 0, 0}},
      {"dct8x8", MachineKind::kUZolc, 0, 64, 64, 2240, 448, {0, 0, 0, 0, 0, 0, 0, 0, 0}},
      {"dct8x8", MachineKind::kUZolc, 13, 239, 137, 1045, 209, {86, 0, 0, 0, 0, 0, 0, 0, 0}},
      {"dct8x8", MachineKind::kZolcLite, 0, 1, 1, 6326, 1151, {0, 0, 0, 0, 0, 0, 0, 0, 0}},
      {"dct8x8", MachineKind::kZolcLite, 13, 615, 389, 2772, 537, {148, 0, 0, 0, 0, 0, 0, 0, 0}},
      {"fft", MachineKind::kUZolc, 0, 28, 0, 0, 0, {0, 0, 28, 0, 0, 0, 0, 0, 0}},
      {"fft", MachineKind::kUZolc, 13, 28, 0, 0, 0, {0, 0, 24, 0, 0, 0, 0, 0, 0}},
      {"fft", MachineKind::kZolcLite, 0, 43, 4, 152, 4, {0, 0, 43, 0, 0, 0, 0, 0, 0}},
      {"fft", MachineKind::kZolcLite, 13, 47, 0, 0, 0, {0, 0, 39, 0, 0, 0, 0, 0, 0}},
      {"me_fsbm", MachineKind::kUZolc, 0, 648, 648, 31752, 4536, {0, 0, 0, 0, 0, 0, 0, 0, 0}},
      {"me_fsbm", MachineKind::kUZolc, 13, 3041, 1495, 10465, 1495, {949, 0, 0, 0, 0, 0, 0, 0, 0}},
      {"me_fsbm", MachineKind::kZolcLite, 0, 81, 81, 37409, 5831, {0, 81, 0, 0, 0, 0, 0, 0, 0}},
      {"me_fsbm", MachineKind::kZolcLite, 13, 3556, 2137, 12904, 2356, {946, 74, 0, 0, 0, 0, 0, 0, 0}},
      {"me_tss", MachineKind::kUZolc, 0, 104, 104, 5096, 728, {0, 0, 0, 0, 0, 0, 0, 0, 0}},
      {"me_tss", MachineKind::kUZolc, 13, 488, 240, 1680, 240, {152, 0, 0, 0, 0, 0, 0, 0, 0}},
      {"me_tss", MachineKind::kZolcLite, 0, 2, 0, 0, 0, {0, 2, 0, 0, 0, 0, 0, 0, 0}},
      {"me_tss", MachineKind::kZolcLite, 13, 2, 0, 0, 0, {0, 1, 0, 0, 0, 0, 0, 0, 0}},
  };
  ASSERT_EQ(pinned.size(), kernels::kernel_registry().size() * 4);
  for (const PinnedCounters& want : pinned) {
    flow::CompileSpec spec;
    spec.kernel = want.kernel;
    spec.machine = want.machine;
    const auto unit = flow::CompiledUnit::compile(spec);
    ASSERT_TRUE(unit.ok()) << unit.error().to_string();
    flow::RunPlan plan;
    plan.mode = {flow::SimEngine::kIss, /*fast_path=*/true};
    plan.preempt_every = want.preempt_every;
    const auto result = flow::run(unit.value(), plan);
    ASSERT_TRUE(result.ok()) << result.error().to_string();
    const FastPathStats& got = result.value().fastpath;
    const std::string label =
        std::string(want.kernel) + " on " +
        std::string(codegen::machine_name(want.machine)) + ", preempt every " +
        std::to_string(want.preempt_every);
    EXPECT_EQ(got.attempts, want.attempts) << label;
    EXPECT_EQ(got.engagements, want.engagements) << label;
    EXPECT_EQ(got.replayed_instructions, want.replayed_instructions) << label;
    EXPECT_EQ(got.replayed_backedges, want.replayed_backedges) << label;
    for (std::size_t r = 0; r < cpu::kNumBailoutReasons; ++r) {
      EXPECT_EQ(got.bailouts[r], want.bailouts[r])
          << label << ": "
          << cpu::bailout_reason_name(static_cast<BailoutReason>(r));
    }
  }
}

// ---------------- part two: typed bailout reasons ----------------

constexpr std::uint32_t kBase = 0x1000;
constexpr std::uint8_t kScratch = 8;  // register for table payloads
constexpr std::uint8_t kBaseReg = 9;  // register holding the base address

/// Fixed-length (2-instruction) load-immediate so program layouts stay
/// deterministic while we compute table offsets.
void li32(std::vector<Instruction>& out, std::uint8_t reg,
          std::uint32_t value) {
  out.push_back(b::lui(reg, static_cast<std::int32_t>(value >> 16)));
  out.push_back(b::ori(reg, reg, static_cast<std::int32_t>(value & 0xFFFFu)));
}

void emit_table_write(std::vector<Instruction>& out, Opcode op,
                      std::uint8_t idx, std::uint32_t payload) {
  li32(out, kScratch, payload);
  out.push_back(b::zolc_write(op, idx, kScratch));
}

void emit_loop(std::vector<Instruction>& out, std::uint8_t id,
               std::int16_t initial, std::int16_t final, std::int8_t step,
               std::uint8_t index_rf, LoopCond cond = LoopCond::kLt) {
  LoopEntry e;
  e.initial = initial;
  e.final = final;
  e.step = step;
  e.index_rf = index_rf;
  e.cond = cond;
  e.valid = true;
  emit_table_write(out, Opcode::kZolwLp0, id, e.pack_word0());
  emit_table_write(out, Opcode::kZolwLp1, id, e.pack_word1());
}

void emit_task(std::vector<Instruction>& out, std::uint8_t id,
               std::uint16_t start_ofs, std::uint16_t end_ofs,
               std::uint8_t loop_id, std::uint8_t cont, std::uint8_t done,
               bool is_last) {
  TaskEntry e;
  e.end_pc_ofs = end_ofs;
  e.loop_id = loop_id;
  e.next_task_cont = cont;
  e.next_task_done = done;
  e.is_last = is_last;
  e.valid = true;
  emit_table_write(out, Opcode::kZolwTe, id, e.pack());
  emit_table_write(out, Opcode::kZolwTs, id, start_ofs);
}

void emit_activate(std::vector<Instruction>& out, std::uint8_t start_task) {
  li32(out, kBaseReg, kBase);
  out.push_back(b::zolon(start_task, kBaseReg));
}

struct BailoutRun {
  cpu::IssStats stats;
  cpu::RegFile regs;
  FastPathStats fastpath;
  zolc::ZolcStats zolc_stats;
  zolc::AccelSnapshot snapshot;
  bool controller_active = false;
};

BailoutRun run_iss_tier(const std::vector<Instruction>& prog,
                        ZolcVariant variant, bool fast,
                        std::uint64_t min_backedges = 2,
                        const std::vector<std::uint32_t>& data = {},
                        std::uint32_t data_base = 0x4000) {
  mem::Memory memory;
  test::load_program(memory, kBase, prog);
  if (!data.empty()) memory.load_words(data_base, data);
  ZolcController controller(variant);
  cpu::Iss iss(memory);
  iss.set_accelerator(&controller);
  iss.set_fast_path(fast);
  iss.summarizer().set_min_backedges(min_backedges);
  iss.set_pc(kBase);
  iss.run(2'000'000);
  EXPECT_TRUE(iss.halted());
  return BailoutRun{iss.stats(),
                    iss.regs(),
                    iss.fastpath_stats(),
                    controller.zolc_stats(),
                    controller.snapshot(),
                    controller.active()};
}

/// The fast tier preempted every `quantum` instructions: the controller's
/// full context is saved, the controller clobbered with reset(), and the
/// context restored before the next slice -- flow::preempt_cycle, DESIGN.md
/// section 9.
BailoutRun run_fast_tier_preempted(const std::vector<Instruction>& prog,
                                   ZolcVariant variant,
                                   std::uint64_t min_backedges,
                                   std::uint64_t quantum,
                                   const std::vector<std::uint32_t>& data = {},
                                   std::uint32_t data_base = 0x4000) {
  mem::Memory memory;
  test::load_program(memory, kBase, prog);
  if (!data.empty()) memory.load_words(data_base, data);
  ZolcController controller(variant);
  cpu::Iss iss(memory);
  iss.set_accelerator(&controller);
  iss.set_fast_path(true);
  iss.summarizer().set_min_backedges(min_backedges);
  iss.set_pc(kBase);
  while (!iss.halted()) {
    iss.run_slice(quantum);
    if (iss.halted()) break;
    flow::preempt_cycle(controller);
  }
  return BailoutRun{iss.stats(),
                    iss.regs(),
                    iss.fastpath_stats(),
                    controller.zolc_stats(),
                    controller.snapshot(),
                    controller.active()};
}

/// Runs `prog` under both tiers, requires architectural equality, and
/// returns the fast tier's run for bailout-counter assertions. A third run
/// preempts the fast tier mid-replay (save/clobber/restore every 13
/// instructions) and demands the typed bailout still fires while counters
/// and architectural state stay identical to the baseline.
BailoutRun expect_bailout_cosim(const std::vector<Instruction>& prog,
                                ZolcVariant variant, BailoutReason reason,
                                std::uint64_t min_backedges = 2,
                                const std::vector<std::uint32_t>& data = {},
                                std::uint32_t data_base = 0x4000) {
  const BailoutRun base = run_iss_tier(prog, variant, /*fast=*/false,
                                       min_backedges, data, data_base);
  const BailoutRun fast = run_iss_tier(prog, variant, /*fast=*/true,
                                       min_backedges, data, data_base);
  EXPECT_TRUE(fast.regs == base.regs)
      << "bailout " << cpu::bailout_reason_name(reason)
      << " is not architecturally invisible";
  EXPECT_EQ(fast.stats.instructions, base.stats.instructions);
  EXPECT_EQ(fast.stats.zolc_fetch_events, base.stats.zolc_fetch_events);
  EXPECT_TRUE(fast.zolc_stats == base.zolc_stats);
  EXPECT_TRUE(fast.snapshot == base.snapshot);
  EXPECT_EQ(fast.controller_active, base.controller_active);
  EXPECT_GE(fast.fastpath.bailout(reason), 1u)
      << "expected at least one " << cpu::bailout_reason_name(reason);

  const BailoutRun preempted = run_fast_tier_preempted(
      prog, variant, min_backedges, /*quantum=*/13, data, data_base);
  EXPECT_TRUE(preempted.regs == base.regs)
      << "bailout " << cpu::bailout_reason_name(reason)
      << " diverged under mid-replay save/restore";
  EXPECT_EQ(preempted.stats.instructions, base.stats.instructions);
  EXPECT_EQ(preempted.stats.zolc_fetch_events, base.stats.zolc_fetch_events);
  EXPECT_TRUE(preempted.zolc_stats == base.zolc_stats);
  EXPECT_TRUE(preempted.snapshot == base.snapshot);
  EXPECT_EQ(preempted.controller_active, base.controller_active);
  EXPECT_GE(preempted.fastpath.bailout(reason), 1u)
      << "expected " << cpu::bailout_reason_name(reason)
      << " to survive save/restore mid-replay";
  return fast;
}

/// The uZOLC form of a one-loop program: its six registers, written with
/// zolw.u (the caller activates). The loop runs from `start_ofs` to
/// `end_ofs`, word offsets from kBase.
void emit_micro_loop(std::vector<Instruction>& out, std::int32_t initial,
                     std::int32_t final, std::int32_t step,
                     std::uint16_t start_ofs, std::uint16_t end_ofs,
                     std::uint8_t index_rf) {
  using zolc::MicroReg;
  const auto write = [&](MicroReg reg, std::uint32_t value) {
    emit_table_write(out, Opcode::kZolwU, static_cast<std::uint8_t>(reg),
                     value);
  };
  write(MicroReg::kInitial, static_cast<std::uint32_t>(initial));
  write(MicroReg::kFinal, static_cast<std::uint32_t>(final));
  write(MicroReg::kStep, static_cast<std::uint32_t>(step));
  write(MicroReg::kStartPc, kBase + 4u * start_ofs);
  write(MicroReg::kEndPc, kBase + 4u * end_ofs);
  write(MicroReg::kCtrl, zolc::pack_micro_ctrl(index_rf, LoopCond::kLt));
}

/// acc += i for i in [0, n), with r1 the index and r2 the accumulator:
/// `setup` runs after both are zeroed, then the loop is programmed for
/// `variant` (a task and a loop entry on ZOLClite/ZOLCfull, the six
/// registers on uZOLC), then the controller activates and the body
/// follows, ending in a halt.
std::vector<Instruction> summing_loop_program(
    ZolcVariant variant, std::int16_t n, const std::vector<Instruction>& body,
    const std::vector<Instruction>& setup = {}) {
  std::vector<Instruction> prog;
  prog.push_back(b::addi(2, 0, 0));  // acc
  prog.push_back(b::addi(1, 0, 0));  // index register
  prog.insert(prog.end(), setup.begin(), setup.end());
  // Each table write is a 3-instruction li32 + zolw; activation is 3 more.
  const std::size_t table_writes = variant == ZolcVariant::kMicro ? 6 : 4;
  const auto start =
      static_cast<std::uint16_t>(prog.size() + 3 * table_writes + 3);
  const auto end = static_cast<std::uint16_t>(start + body.size() - 1);
  if (variant == ZolcVariant::kMicro) {
    emit_micro_loop(prog, 0, n, 1, start, end, /*index_rf=*/1);
  } else {
    emit_loop(prog, 0, 0, n, 1, /*index_rf=*/1);
    emit_task(prog, 0, start, end, /*loop=*/0, /*cont=*/0, /*done=*/0,
              /*is_last=*/true);
  }
  emit_activate(prog, 0);
  EXPECT_EQ(prog.size(), start);
  prog.insert(prog.end(), body.begin(), body.end());
  prog.push_back(b::halt());
  return prog;
}

/// The variants the directed bailouts below run over: uZOLC's single loop
/// and the same loop as a one-task ZOLClite program.
constexpr ZolcVariant kSingleLoopVariants[] = {ZolcVariant::kMicro,
                                               ZolcVariant::kLite};

TEST(FastPathBailouts, ShortLoopDeclinesBelowMinBackedges) {
  for (const ZolcVariant variant : kSingleLoopVariants) {
    SCOPED_TRACE(zolc::variant_name(variant));
    const auto prog =
        summing_loop_program(variant, 50, {b::add(2, 2, 1), b::nop()});
    const BailoutRun fast = expect_bailout_cosim(
        prog, variant, BailoutReason::kShortLoop,
        /*min_backedges=*/std::uint64_t{1} << 30);
    EXPECT_EQ(fast.regs.read(2), 50 * 49 / 2);
    EXPECT_EQ(fast.fastpath.engagements, 0u);  // every attempt declined
  }
}

TEST(FastPathBailouts, ControlFlowInBodyDeclines) {
  // r5 = 1, so the branch never fires -- but its presence alone must keep
  // the region out of the micro-op tier.
  std::vector<Instruction> prog;
  prog.push_back(b::addi(2, 0, 0));  // acc
  prog.push_back(b::addi(1, 0, 0));  // index
  prog.push_back(b::addi(5, 0, 1));  // branch sentinel, never zero
  emit_loop(prog, 0, 0, 50, 1, /*index_rf=*/1);
  emit_task(prog, 0, /*start=*/18, /*end=*/20, 0, 0, 0, true);
  emit_activate(prog, 0);
  ASSERT_EQ(prog.size(), 18u);
  prog.push_back(b::add(2, 2, 1));   // 18
  prog.push_back(b::beq(5, 0, 1));   // 19: never taken
  prog.push_back(b::nop());          // 20: task end
  prog.push_back(b::halt());
  const BailoutRun fast = expect_bailout_cosim(prog, ZolcVariant::kLite,
                                               BailoutReason::kControlFlow);
  EXPECT_EQ(fast.regs.read(2), 50 * 49 / 2);
}

TEST(FastPathBailouts, BodyWritingLoopIndexDeclines) {
  // add r1, r1, r0 rewrites the index with its own value: architecturally a
  // no-op, but the body now writes the index register and closed-form
  // replay of the recurrence is off the table.
  for (const ZolcVariant variant : kSingleLoopVariants) {
    SCOPED_TRACE(zolc::variant_name(variant));
    const auto prog = summing_loop_program(
        variant, 50, {b::add(2, 2, 1), b::add(1, 1, 0), b::nop()});
    const BailoutRun fast = expect_bailout_cosim(
        prog, variant, BailoutReason::kNonAffineUpdate);
    EXPECT_EQ(fast.regs.read(2), 50 * 49 / 2);
  }
}

TEST(FastPathBailouts, ArmedExitRecordDeclines) {
  // ZOLCfull with a candidate-exit record armed for loop 0. No branch ever
  // takes it (the body is branch-free), but replaying in closed form would
  // skip the per-iteration chance of an exit match, so the tier declines.
  std::vector<Instruction> prog;
  prog.push_back(b::addi(2, 0, 0));  // acc
  prog.push_back(b::addi(1, 0, 0));  // index
  emit_loop(prog, 0, 0, 40, 1, /*index_rf=*/1);
  emit_task(prog, 0, /*start=*/20, /*end=*/21, 0, 0, 0, true);
  {
    zolc::ExitRecord rec;
    rec.branch_pc_ofs = 20;
    rec.next_task = 0;
    rec.reinit_mask = 0x1;
    rec.valid = true;
    rec.deactivate = true;
    emit_table_write(prog, Opcode::kZolwEx0, 0, rec.pack_lo());
  }
  emit_activate(prog, 0);
  ASSERT_EQ(prog.size(), 20u);
  prog.push_back(b::add(2, 2, 1));  // 20
  prog.push_back(b::nop());         // 21: task end
  prog.push_back(b::halt());
  const BailoutRun fast = expect_bailout_cosim(prog, ZolcVariant::kFull,
                                               BailoutReason::kExitRecord);
  EXPECT_EQ(fast.regs.read(2), 40 * 39 / 2);
  EXPECT_EQ(fast.fastpath.engagements, 0u);
}

TEST(FastPathBailouts, ZolcInstructionInRegionDeclines) {
  // Two sequential loops; the second body deactivates the controller with
  // zoloff. The first loop replays in closed form, then the chain into the
  // second region hits the ZOLC instruction and bails before executing it.
  std::vector<Instruction> prog;
  prog.push_back(b::addi(2, 0, 0));  // acc
  prog.push_back(b::addi(1, 0, 0));  // i
  prog.push_back(b::addi(3, 0, 0));  // j (never advanced: loop 1 dies early)
  emit_loop(prog, 0, 0, 10, 1, /*index_rf=*/1);
  emit_loop(prog, 1, 0, 5, 1, /*index_rf=*/3);
  emit_task(prog, 0, /*start=*/30, /*end=*/31, /*loop=*/0, /*cont=*/0,
            /*done=*/1, /*is_last=*/false);
  emit_task(prog, 1, /*start=*/32, /*end=*/33, /*loop=*/1, /*cont=*/1,
            /*done=*/1, /*is_last=*/true);
  emit_activate(prog, 0);
  ASSERT_EQ(prog.size(), 30u);
  prog.push_back(b::add(2, 2, 1));  // 30: loop 0 body
  prog.push_back(b::nop());         // 31: task 0 end
  prog.push_back(b::zoloff());      // 32: loop 1 body -- kills the controller
  prog.push_back(b::nop());         // 33: task 1 end (never triggers)
  prog.push_back(b::halt());        // 34
  const BailoutRun fast = expect_bailout_cosim(prog, ZolcVariant::kLite,
                                               BailoutReason::kAccelMutation);
  EXPECT_EQ(fast.regs.read(2), 10 * 9 / 2);
  EXPECT_FALSE(fast.controller_active);
  EXPECT_GE(fast.fastpath.engagements, 1u);  // loop 0 still replayed
}

/// Runs `prog` until it throws `Fault`: on the baseline tier, on the fast
/// tier, or on the fast tier preempted every 13 instructions. All three must
/// stop at the same retired instruction with the same registers, ZolcStats
/// and controller snapshot, and both fast runs must have declined with kTrap
/// at least once, leaving the baseline to raise the fault. Returns the fast
/// run.
template <typename Fault>
BailoutRun expect_fault_cosim(const std::vector<Instruction>& prog,
                              ZolcVariant variant,
                              const std::vector<std::uint32_t>& data = {}) {
  const auto run_to_fault = [&](bool fast, bool preempt) {
    mem::Memory memory;
    test::load_program(memory, kBase, prog);
    if (!data.empty()) memory.load_words(0x4000, data);
    ZolcController controller(variant);
    cpu::Iss iss(memory);
    iss.set_accelerator(&controller);
    iss.set_fast_path(fast);
    iss.set_pc(kBase);
    if (preempt) {
      EXPECT_THROW(
          {
            while (!iss.halted()) {
              iss.run_slice(13);
              if (iss.halted()) break;
              flow::preempt_cycle(controller);
            }
          },
          Fault);
    } else {
      EXPECT_THROW(iss.run(2'000'000), Fault);
    }
    return BailoutRun{iss.stats(),
                      iss.regs(),
                      iss.fastpath_stats(),
                      controller.zolc_stats(),
                      controller.snapshot(),
                      controller.active()};
  };
  const BailoutRun base = run_to_fault(false, false);
  const BailoutRun fast = run_to_fault(true, false);
  const BailoutRun preempted = run_to_fault(true, true);
  for (const BailoutRun* run : {&fast, &preempted}) {
    EXPECT_TRUE(run->regs == base.regs);
    EXPECT_EQ(run->stats.instructions, base.stats.instructions);
    EXPECT_TRUE(run->zolc_stats == base.zolc_stats);
    EXPECT_TRUE(run->snapshot == base.snapshot);
    EXPECT_GE(run->fastpath.bailout(BailoutReason::kTrap), 1u);
  }
  return fast;
}

TEST(FastPathBailouts, MisalignedAccessBailsThenTrapsPrecisely) {
  // The pointer advances by 2 each iteration: the first load is aligned,
  // the second traps. The fast path must bail at the exact instruction
  // boundary so the baseline raises the same MemoryFault both ways, also
  // under save/clobber/restore mid-replay.
  std::vector<Instruction> setup;
  li32(setup, 7, 0x4000);  // data pointer
  for (const ZolcVariant variant : kSingleLoopVariants) {
    SCOPED_TRACE(zolc::variant_name(variant));
    const auto prog = summing_loop_program(
        variant, 50,
        {b::lw(6, 0, 7), b::addi(7, 7, 2) /* misaligns the next load */,
         b::nop()},
        setup);
    const BailoutRun fast =
        expect_fault_cosim<mem::MemoryFault>(prog, variant, {11, 22, 33});
    // Both tiers stop at the same architectural point: r7 misaligned, the
    // first element still in r6, the fault instruction not retired.
    EXPECT_EQ(fast.regs.read_u(7), 0x4002u);
    EXPECT_EQ(fast.regs.read(6), 11);
  }
}

TEST(FastPathBailouts, MisalignedLoadAtTheTriggerTrapsBeforeItsEvent) {
  // The load at the task's end PC reads r7 + (i >> 2): aligned for the
  // first four passes, which the fast tier replays, misaligned on the
  // fifth. The event at the trigger resolves only after the load, so both
  // tiers trap with the controller and the index register still at 4 and
  // that event uncounted.
  std::vector<Instruction> setup;
  li32(setup, 7, 0x4000);  // data pointer
  for (const ZolcVariant variant : kSingleLoopVariants) {
    SCOPED_TRACE(zolc::variant_name(variant));
    const auto prog = summing_loop_program(
        variant, 50,
        {b::add(2, 2, 1), b::srl(5, 1, 2), b::add(6, 7, 5), b::lw(6, 0, 6)},
        setup);
    const BailoutRun fast =
        expect_fault_cosim<mem::MemoryFault>(prog, variant, {11, 22, 33});
    EXPECT_EQ(fast.regs.read(1), 4);
    EXPECT_EQ(fast.regs.read(2), 4 * 5 / 2);
    EXPECT_EQ(fast.regs.read_u(6), 0x4001u);
    EXPECT_EQ(fast.snapshot.loop_current[0], 4);
    EXPECT_EQ(fast.snapshot.current_task, 0u);
    EXPECT_TRUE(fast.snapshot.active);
    EXPECT_EQ(fast.stats.zolc_fetch_events, 4u);
    EXPECT_EQ(fast.zolc_stats.continue_events, 4u);
    EXPECT_GE(fast.fastpath.engagements, 1u);
  }
}

/// A ZOLClite program whose loop 0 (index r1, five trips) ends task 0 at a
/// shared boundary; its done successor, task 1, shares that end PC and is
/// programmed by `emit_task1`. Each iteration adds the index to r2.
std::vector<Instruction> done_cascade_program(
    void (*emit_task1)(std::vector<Instruction>&, std::uint16_t start,
                       std::uint16_t end)) {
  constexpr std::uint16_t kStart = 32;  // past every table write
  constexpr std::uint16_t kEnd = kStart + 1;
  std::vector<Instruction> prog;
  prog.push_back(b::addi(2, 0, 0));  // acc
  prog.push_back(b::addi(1, 0, 0));  // index
  emit_loop(prog, 0, 0, 5, 1, /*index_rf=*/1);
  emit_task(prog, 0, kStart, kEnd, /*loop=*/0, /*cont=*/0, /*done=*/1,
            /*is_last=*/false);
  emit_task1(prog, kStart, kEnd);
  emit_activate(prog, 0);
  EXPECT_LE(prog.size(), kStart);
  while (prog.size() < kStart) prog.push_back(b::nop());
  prog.push_back(b::add(2, 2, 1));  // body
  prog.push_back(b::nop());         // shared end
  prog.push_back(b::halt());
  return prog;
}

TEST(FastPathBailouts, DoneCascadeIntoInvalidLoopTrapsPrecisely) {
  // Task 1 names loop 3, which is never programmed: loop 0's done event
  // cascades into it and the controller raises a SimError. Task 0 is not
  // walk_safe, so the fast tier must decline every offer and leave the
  // fault to the baseline.
  const auto prog = done_cascade_program(
      [](std::vector<Instruction>& p, std::uint16_t start, std::uint16_t end) {
        emit_task(p, 1, start, end, /*loop=*/3, /*cont=*/1, /*done=*/1,
                  /*is_last=*/true);
      });
  const BailoutRun fast =
      expect_fault_cosim<SimError>(prog, ZolcVariant::kLite);
  EXPECT_EQ(fast.regs.read(2), 5 * 4 / 2);  // every pass ran
  EXPECT_EQ(fast.fastpath.engagements, 0u);
}

TEST(FastPathBailouts, CascadePastLoopTableDepthTrapsPrecisely) {
  // Task 1 is its own done successor over an always-done loop at the same
  // end PC, so loop 0's done event cascades until it passes the loop
  // table's eight entries and the controller raises a SimError.
  const auto prog = done_cascade_program(
      [](std::vector<Instruction>& p, std::uint16_t start, std::uint16_t end) {
        emit_loop(p, 1, 0, 0, 1, /*index_rf=*/3);  // 1 < 0 fails: always done
        emit_task(p, 1, start, end, /*loop=*/1, /*cont=*/1, /*done=*/1,
                  /*is_last=*/false);
      });
  const BailoutRun fast =
      expect_fault_cosim<SimError>(prog, ZolcVariant::kLite);
  EXPECT_EQ(fast.regs.read(2), 5 * 4 / 2);
  EXPECT_EQ(fast.fastpath.engagements, 0u);
}

TEST(FastPathBailouts, StoreIntoSummarizedCodeDeclines) {
  // The body rewrites its own first instruction with identical bytes: the
  // baseline executes it harmlessly, the fast path must refuse to replay a
  // region whose code it may be invalidating.
  std::vector<Instruction> prog;
  prog.push_back(b::addi(2, 0, 0));            // acc
  prog.push_back(b::addi(1, 0, 0));            // index
  li32(prog, 7, kBase + 4 * 19);               // address of body start
  emit_loop(prog, 0, 0, 30, 1, /*index_rf=*/1);
  emit_task(prog, 0, /*start=*/19, /*end=*/22, 0, 0, 0, true);
  emit_activate(prog, 0);
  ASSERT_EQ(prog.size(), 19u);
  prog.push_back(b::lw(6, 0, 7));    // 19: load own encoding
  prog.push_back(b::sw(6, 0, 7));    // 20: store it back unchanged
  prog.push_back(b::add(2, 2, 1));   // 21
  prog.push_back(b::nop());          // 22: task end
  prog.push_back(b::halt());
  const BailoutRun fast = expect_bailout_cosim(
      prog, ZolcVariant::kLite, BailoutReason::kSelfModifyingStore);
  EXPECT_EQ(fast.regs.read(2), 30 * 29 / 2);
}

TEST(FastPathBailouts, StoreIntoSummarizedCodeAtTheTopOfMemoryDeclines) {
  // An image-less uZOLC body that rewrites its own last word on alternate
  // passes, toggling it between two increments of r3. At 0xFFFFFFF0 the
  // last word ends the address space, so its store's end address wraps to
  // 0; the fast tier must still see the store landing in summarized code.
  // The done event falls through to end_pc + 4, the halt past the body.
  const std::uint32_t inc1 = isa::encode(b::addi(3, 3, 1));
  const std::uint32_t inc2 = isa::encode(b::addi(3, 3, 2));
  for (const std::uint32_t body : {0x8000u, 0xFFFFFFF0u}) {
    SCOPED_TRACE(hex32(body));
    const std::uint32_t last = body + 12;
    std::vector<Instruction> prog;
    prog.push_back(b::addi(1, 0, 0));  // index register
    prog.push_back(b::addi(3, 0, 0));  // sum of the executed increments
    li32(prog, 6, inc1);               // the last word as loaded
    li32(prog, 7, inc1 ^ inc2);        // toggle mask
    li32(prog, 11, last);              // store address
    li32(prog, 10, body);              // jump target
    using zolc::MicroReg;
    const auto write = [&prog](MicroReg reg, std::uint32_t value) {
      emit_table_write(prog, Opcode::kZolwU, static_cast<std::uint8_t>(reg),
                       value);
    };
    write(MicroReg::kInitial, 0);
    write(MicroReg::kFinal, 30);
    write(MicroReg::kStep, 1);
    write(MicroReg::kStartPc, body);
    write(MicroReg::kEndPc, last);
    write(MicroReg::kCtrl, zolc::pack_micro_ctrl(1, LoopCond::kLt));
    emit_activate(prog, 0);
    prog.push_back(b::jr(10));
    const std::vector<std::uint32_t> code = {
        isa::encode(b::xor_(6, 6, 7)),   // the other increment
        isa::encode(b::sw(6, 0, 11)),    // rewrite the last word
        isa::encode(b::nop()),
        inc1,                            // task end: the rewritten word
        isa::encode(b::halt()),          // end_pc + 4 (wraps to 0)
    };
    const BailoutRun fast =
        expect_bailout_cosim(prog, ZolcVariant::kMicro,
                             BailoutReason::kSelfModifyingStore, 2, code, body);
    EXPECT_EQ(fast.regs.read(3), 15 * 2 + 15 * 1);
  }
}

TEST(FastPathBailouts, OverlappingStoresInOneIterationDecline) {
  // Two word stores to the same address per iteration: the recorded pattern
  // self-overlaps, so closed-form replay (which commits one value per slot)
  // cannot represent the write ordering and must bail after validation.
  std::vector<Instruction> setup;
  setup.push_back(b::addi(2, 0, 7));  // first store value
  li32(setup, 7, 0x4000);             // output pointer (loop-invariant)
  for (const ZolcVariant variant : kSingleLoopVariants) {
    SCOPED_TRACE(zolc::variant_name(variant));
    const auto prog = summing_loop_program(
        variant, 30,
        {b::sw(2, 0, 7), b::sw(1, 0, 7) /* overwrites the same word */,
         b::nop()},
        setup);
    const BailoutRun fast = expect_bailout_cosim(
        prog, variant, BailoutReason::kOverlappingStore);
    // The last iteration's second store wins, exactly as per-instruction
    // execution would have it.
    EXPECT_EQ(fast.regs.read(1), 0);  // reinit-on-exit
  }
}

TEST(FastPathBailouts, UnbackedgedFinalPassIsNeverValidated) {
  // Engaged after the first back-edge of a three-trip loop with
  // min_backedges <= 1, the bulk path runs the last two passes singly, and
  // the second is the final (done) pass. Its overlapping stores must not
  // bail: a bail resumes at the body start and would run that pass again.
  std::vector<Instruction> setup;
  setup.push_back(b::addi(2, 0, 7));  // first store value
  li32(setup, 7, 0x4000);             // output pointer (loop-invariant)
  for (const ZolcVariant variant : kSingleLoopVariants) {
    for (const std::uint64_t min_backedges : {0u, 1u}) {
      SCOPED_TRACE(std::string(zolc::variant_name(variant)) +
                   ", min_backedges " + std::to_string(min_backedges));
      const auto prog = summing_loop_program(
          variant, 3, {b::sw(2, 0, 7), b::sw(1, 0, 7), b::addi(3, 3, 1)},
          setup);
      const BailoutRun base =
          run_iss_tier(prog, variant, /*fast=*/false, min_backedges);
      const BailoutRun fast =
          run_iss_tier(prog, variant, /*fast=*/true, min_backedges);
      EXPECT_EQ(fast.regs.read(3), 3);  // one increment per pass
      EXPECT_TRUE(fast.regs == base.regs);
      EXPECT_EQ(fast.stats.instructions, base.stats.instructions);
      EXPECT_TRUE(fast.zolc_stats == base.zolc_stats);
      EXPECT_GE(fast.fastpath.engagements, 1u);
      EXPECT_EQ(fast.fastpath.total_bailouts(), 0u);
    }
  }
}

TEST(FastPathBailouts, ValidationSeamRejectsDoctoredRecordings) {
  using Summarizer = cpu::LoopSummarizer;
  using SR = Summarizer::StoreRecord;
  const auto check = [](std::vector<SR> first, std::vector<SR> second,
                        std::vector<std::int64_t> strides) {
    return Summarizer::check_recorded_iterations(first, second, strides);
  };

  // Consistent recording: disjoint stores advancing by the predicted
  // stride, second iteration matching.
  EXPECT_EQ(check({{0x100, 4}, {0x200, 2}}, {{0x104, 4}, {0x202, 2}}, {4, 2}),
            std::nullopt);
  // First iteration not yet validated (second empty): only overlap checked.
  EXPECT_EQ(check({{0x100, 4}}, {}, {}), std::nullopt);

  // Overlap inside the first iteration, including partial byte overlap.
  EXPECT_EQ(check({{0x100, 4}, {0x102, 4}}, {}, {}),
            BailoutReason::kOverlappingStore);
  EXPECT_EQ(check({{0x100, 4}, {0x103, 1}}, {}, {}),
            BailoutReason::kOverlappingStore);

  // Second iteration contradicting the prediction: wrong stride, wrong
  // store count, or wrong access width.
  EXPECT_EQ(check({{0x100, 4}}, {{0x108, 4}}, {4}),
            BailoutReason::kValidationMismatch);
  EXPECT_EQ(check({{0x100, 4}}, {{0x104, 4}, {0x200, 4}}, {4}),
            BailoutReason::kValidationMismatch);
  EXPECT_EQ(check({{0x100, 4}}, {{0x104, 2}}, {4}),
            BailoutReason::kValidationMismatch);
}

// ---------------- part three: per-run statistics reset ----------------

TEST(FastPathStatsReset, RunCountsThisRunOnly) {
  // Four filler instructions and a halt; two step() calls leave residue
  // that run() must discard before counting its own retirements.
  std::vector<Instruction> prog;
  for (int i = 0; i < 4; ++i) prog.push_back(b::addi(2, 2, 1));
  prog.push_back(b::halt());
  mem::Memory memory;
  test::load_program(memory, kBase, prog);
  cpu::Iss iss(memory);
  iss.set_pc(kBase);
  iss.step();
  iss.step();
  EXPECT_EQ(iss.stats().instructions, 2u);
  iss.run(1000);
  // Only the three instructions this run retired -- not 2 + 3.
  EXPECT_EQ(iss.stats().instructions, 3u);
  EXPECT_EQ(iss.regs().read(2), 4);
}

TEST(FastPathStatsReset, FastPathCountersResetPerRun) {
  const auto prog = summing_loop_program(ZolcVariant::kLite, 50,
                                         {b::add(2, 2, 1), b::nop()});
  mem::Memory memory;
  test::load_program(memory, kBase, prog);
  ZolcController controller(ZolcVariant::kLite);
  cpu::Iss iss(memory);
  iss.set_accelerator(&controller);
  iss.set_fast_path(true);
  iss.set_pc(kBase);
  iss.run(2'000'000);
  EXPECT_TRUE(iss.halted());
  EXPECT_GE(iss.fastpath_stats().engagements, 1u);
  EXPECT_GT(iss.fastpath_stats().replayed_instructions, 0u);
  // A second run (immediately halted) reports a clean slate, not the
  // previous run's engagement history.
  iss.run(1000);
  EXPECT_EQ(iss.stats().instructions, 0u);
  EXPECT_TRUE(iss.fastpath_stats() == FastPathStats{});
}

}  // namespace
}  // namespace zolcsim
