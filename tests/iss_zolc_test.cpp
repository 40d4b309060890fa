// Directed ISS tests of fetch-time ZOLC events: a task-end event raised at
// the fetch of an instruction is kept exactly when that instruction is not
// a taken control transfer, and discarded (controller state, index
// write-back and redirect) when it is. Every instruction kind is placed on
// the trigger PC of every ZOLC variant, fetching through the code image and
// through memory. A kept event's index write lands after the instruction's
// own write-back, and the instruction reads the pre-event index.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "sim_test_util.hpp"
#include "zolc/controller.hpp"

namespace zolcsim::cpu {
namespace {

namespace b = isa::build;
using isa::Instruction;
using zolc::AccelSnapshot;
using zolc::RfWrite;
using zolc::ZolcController;
using zolc::ZolcVariant;

constexpr std::uint32_t kBase = 0x1000;
constexpr std::uint32_t pc_of(unsigned ofs) { return kBase + ofs * 4; }

// Program layout: the loop body runs from kStartOfs to the trigger at
// kTriggerOfs; taken transfers land on kTargetOfs.
constexpr unsigned kStartOfs = 2;
constexpr unsigned kTriggerOfs = 4;
constexpr unsigned kTargetOfs = 7;
constexpr unsigned kProgramWords = 9;

constexpr std::uint8_t kIndexReg = 20;
constexpr std::uint32_t kDataAddr = 0x2000;
constexpr std::uint32_t kLoadValue = 0xCAFE;
constexpr std::int32_t kStoreValue = 0x1234;

/// One instruction under test with its expected architectural effect.
struct Case {
  std::string name;
  Instruction instr;
  bool taken = false;  ///< a taken control transfer (to pc_of(kTargetOfs))
  std::vector<RfWrite> writes;  ///< register effects of the instruction
  /// A word store: its address and value.
  std::optional<std::pair<std::uint32_t, std::int32_t>> stored;
  bool halts = false;
  bool deactivates = false;  ///< zoloff
};

std::vector<Case> cases() {
  const std::int32_t target_ofs = kTargetOfs - kTriggerOfs - 1;
  const auto link = static_cast<std::int32_t>(pc_of(kTriggerOfs) + 4);
  return {
      {"beq_taken", b::beq(1, 2, target_ofs), true, {}, {}},
      {"beq_not_taken", b::beq(1, 3, target_ofs), false, {}, {}},
      {"dbne_taken", b::dbne(4, target_ofs), true, {{4, 1}}, {}},
      {"dbne_not_taken", b::dbne(5, target_ofs), false, {{5, 0}}, {}},
      {"j", b::j(pc_of(kTargetOfs)), true, {}, {}},
      {"jal", b::jal(pc_of(kTargetOfs)), true, {{31, link}}, {}},
      {"jr", b::jr(8), true, {}, {}},
      {"jalr", b::jalr(11, 8), true, {{11, link}}, {}},
      {"add", b::add(12, 1, 3), false, {{12, 16}}, {}},
      {"sub", b::sub(12, 3, 1), false, {{12, 2}}, {}},
      {"ori", b::ori(12, 1, 0x30), false, {{12, 0x37}}, {}},
      {"addi", b::addi(12, 1, -3), false, {{12, 4}}, {}},
      {"mac", b::mac(14, 1, 3), false, {{14, 5 + 7 * 9}}, {}},
      {"max", b::max(12, 1, 3), false, {{12, 9}}, {}},
      {"sll", b::sll(12, 3, 4), false, {{12, 9 << 4}}, {}},
      {"mul", b::mul(12, 1, 3), false, {{12, 63}}, {}},
      {"load", b::lw(13, 0, 9), false, {{13, kLoadValue}}, {}},
      {"store", b::sw(10, 4, 9), false, {}, {{kDataAddr + 4, kStoreValue}}},
      {"halt", b::halt(), false, {}, {}, true},
      {"zoloff", b::zoloff(), false, {}, {}, false, true},
      // The instruction writes the index register: the index write wins.
      {"addi_to_index", b::addi(kIndexReg, 1, 90), false, {{kIndexReg, 97}},
       {}},
      {"load_to_index", b::lw(kIndexReg, 0, 9), false,
       {{kIndexReg, kLoadValue}}, {}},
      {"mac_on_index", b::mac(kIndexReg, 1, 3), false, {{kIndexReg, 63}}, {}},
      {"jalr_to_index", b::jalr(kIndexReg, 8), true, {{kIndexReg, link}}, {}},
      // The instruction reads the index register: it sees the pre-event 0.
      {"addi_from_index", b::addi(12, kIndexReg, 5), false, {{12, 5}}, {}},
      {"store_index", b::sw(kIndexReg, 4, 9), false, {}, {{kDataAddr + 4, 0}}},
      {"beq_on_index_taken", b::beq(kIndexReg, 0, target_ofs), true, {}, {}},
  };
}

/// Programs one self-looping task (body kStartOfs..kTriggerOfs, index in
/// kIndexReg counting 0 -> 5) and activates it, so the next fetch of the
/// trigger PC raises a continue event.
void program_loop(ZolcController& c) {
  if (c.variant() == ZolcVariant::kMicro) {
    c.init_write(isa::Opcode::kZolwU, 0, 0);  // initial
    c.init_write(isa::Opcode::kZolwU, 1, 5);  // final
    c.init_write(isa::Opcode::kZolwU, 2, 1);  // step
    c.init_write(isa::Opcode::kZolwU, 4, pc_of(kStartOfs));
    c.init_write(isa::Opcode::kZolwU, 5, pc_of(kTriggerOfs));
    c.init_write(isa::Opcode::kZolwU, 6,
                 zolc::pack_micro_ctrl(kIndexReg, zolc::LoopCond::kLt));
  } else {
    zolc::LoopEntry loop;
    loop.initial = 0;
    loop.final = 5;
    loop.step = 1;
    loop.index_rf = kIndexReg;
    loop.valid = true;
    c.init_write(isa::Opcode::kZolwLp0, 0, loop.pack_word0());
    c.init_write(isa::Opcode::kZolwLp1, 0, loop.pack_word1());
    zolc::TaskEntry task;
    task.end_pc_ofs = kTriggerOfs;
    task.is_last = true;
    task.valid = true;
    c.init_write(isa::Opcode::kZolwTe, 0, task.pack(c.geometry()));
    c.init_write(isa::Opcode::kZolwTs, 0, kStartOfs);
  }
  c.activate(0, kBase);
}

void seed_registers(RegFile& regs) {
  regs.write(1, 7);
  regs.write(2, 7);  // beq $1, $2 is taken
  regs.write(3, 9);  // beq $1, $3 falls through
  regs.write(4, 2);  // dbne $4 decrements to 1: taken
  regs.write(5, 1);  // dbne $5 decrements to 0: falls through
  regs.write(8, static_cast<std::int32_t>(pc_of(kTargetOfs)));
  regs.write(9, static_cast<std::int32_t>(kDataAddr));
  regs.write(10, kStoreValue);
  regs.write(14, 5);  // mac accumulator
}

TEST(IssFetchEvent, KeptExactlyWhenTheTriggerIsNotATakenTransfer) {
  for (const ZolcVariant variant :
       {ZolcVariant::kMicro, ZolcVariant::kLite, ZolcVariant::kFull}) {
    for (const Case& tc : cases()) {
      for (const bool use_image : {true, false}) {
        const std::string what = tc.name + " on " +
                                 std::string(zolc::variant_name(variant)) +
                                 (use_image ? " (image)" : " (memory)");
        std::vector<Instruction> program(kProgramWords, b::nop());
        program[kTriggerOfs] = tc.instr;
        program.back() = b::halt();
        mem::Memory memory;
        test::load_program(memory, kBase, program);
        memory.write32(kDataAddr, kLoadValue);

        ZolcController ctrl(variant);
        program_loop(ctrl);
        const AccelSnapshot before = test::snapshot_of(ctrl);

        const DecodedImage image(kBase, program);
        Iss iss(memory);
        iss.set_accelerator(&ctrl);
        if (use_image) iss.set_code_image(image);
        seed_registers(iss.regs());
        iss.set_pc(pc_of(kTriggerOfs));
        RegFile expected_regs = iss.regs();
        iss.step();

        // A kept continue event advances the index to 1, writes it back
        // after the instruction's own write-back and redirects to the body
        // start; a taken transfer discards it.
        for (const RfWrite& w : tc.writes) expected_regs.write(w.reg, w.value);
        AccelSnapshot expected_snap = before;
        std::uint32_t expected_pc = pc_of(kTargetOfs);
        if (!tc.taken) {
          expected_snap.loop_current[0] = 1;
          expected_regs.write(kIndexReg, 1);
          expected_pc = pc_of(kStartOfs);
        }
        if (tc.deactivates) expected_snap.active = false;

        EXPECT_EQ(iss.pc(), expected_pc) << what;
        EXPECT_EQ(iss.halted(), tc.halts) << what;
        EXPECT_TRUE(iss.regs() == expected_regs) << what;
        EXPECT_TRUE(test::snapshot_of(ctrl) == expected_snap) << what;
        if (tc.deactivates) {
          EXPECT_EQ(ctrl.trigger_pc(), std::nullopt) << what;
        } else {
          EXPECT_EQ(ctrl.trigger_pc(), pc_of(kTriggerOfs)) << what;
        }
        IssStats expected_stats;
        expected_stats.instructions = 1;
        expected_stats.taken_control = tc.taken ? 1 : 0;
        expected_stats.zolc_fetch_events = 1;  // counted even when discarded
        EXPECT_TRUE(iss.stats() == expected_stats) << what;
        if (tc.stored) {
          EXPECT_EQ(memory.read32(tc.stored->first),
                    static_cast<std::uint32_t>(tc.stored->second))
              << what;
        }
      }
    }
  }
}

TEST(IssFetchEvent, ZolcInstructionAtTheTriggerResolvesTheEventFirst) {
  // zolon and a table write trap while the controller is active. The event
  // at their fetch has already resolved in full when they trap: the
  // controller has advanced and the index write has landed.
  for (const ZolcVariant variant :
       {ZolcVariant::kMicro, ZolcVariant::kLite, ZolcVariant::kFull}) {
    for (const Instruction& instr :
         {b::zolon(0, 9), b::zolc_write(isa::Opcode::kZolwU, 0, 9),
          b::zolc_write(isa::Opcode::kZolwLp0, 0, 9)}) {
      for (const bool use_image : {true, false}) {
        const std::string what =
            std::string(isa::opcode_info(instr.op).mnemonic) + " on " +
            std::string(zolc::variant_name(variant)) +
            (use_image ? " (image)" : " (memory)");
        std::vector<Instruction> program(kProgramWords, b::nop());
        program[kTriggerOfs] = instr;
        program.back() = b::halt();
        mem::Memory memory;
        test::load_program(memory, kBase, program);

        ZolcController ctrl(variant);
        program_loop(ctrl);
        AccelSnapshot expected_snap = test::snapshot_of(ctrl);
        expected_snap.loop_current[0] = 1;

        const DecodedImage image(kBase, program);
        Iss iss(memory);
        iss.set_accelerator(&ctrl);
        if (use_image) iss.set_code_image(image);
        seed_registers(iss.regs());
        iss.set_pc(pc_of(kTriggerOfs));
        RegFile expected_regs = iss.regs();
        expected_regs.write(kIndexReg, 1);
        EXPECT_THROW(iss.step(), SimError) << what;

        EXPECT_EQ(iss.pc(), pc_of(kTriggerOfs)) << what;
        EXPECT_TRUE(iss.regs() == expected_regs) << what;
        EXPECT_TRUE(test::snapshot_of(ctrl) == expected_snap) << what;
        EXPECT_EQ(iss.stats().instructions, 0u) << what;
        EXPECT_EQ(iss.stats().zolc_fetch_events, 1u) << what;
      }
    }
  }
}

TEST(IssFetchEvent, TrappingAccessAtTheTriggerLeavesTheEventUnresolved) {
  // The event resolves after the instruction's write-back, so a misaligned
  // access traps first: controller, registers and counters stay as they
  // were before the step.
  for (const ZolcVariant variant :
       {ZolcVariant::kMicro, ZolcVariant::kLite, ZolcVariant::kFull}) {
    for (const Instruction& instr :
         {b::lw(13, 2, 9), b::lh(13, 1, 9), b::sw(10, 2, 9)}) {
      for (const bool use_image : {true, false}) {
        const std::string what =
            std::string(isa::opcode_info(instr.op).mnemonic) + " on " +
            std::string(zolc::variant_name(variant)) +
            (use_image ? " (image)" : " (memory)");
        std::vector<Instruction> program(kProgramWords, b::nop());
        program[kTriggerOfs] = instr;
        program.back() = b::halt();
        mem::Memory memory;
        test::load_program(memory, kBase, program);

        ZolcController ctrl(variant);
        program_loop(ctrl);
        const AccelSnapshot before = test::snapshot_of(ctrl);

        const DecodedImage image(kBase, program);
        Iss iss(memory);
        iss.set_accelerator(&ctrl);
        if (use_image) iss.set_code_image(image);
        seed_registers(iss.regs());
        iss.set_pc(pc_of(kTriggerOfs));
        const RegFile regs_before = iss.regs();
        EXPECT_THROW(iss.step(), mem::MemoryFault) << what;

        EXPECT_EQ(iss.pc(), pc_of(kTriggerOfs)) << what;
        EXPECT_TRUE(iss.regs() == regs_before) << what;
        EXPECT_TRUE(test::snapshot_of(ctrl) == before) << what;
        EXPECT_EQ(ctrl.trigger_pc(), pc_of(kTriggerOfs)) << what;
        EXPECT_EQ(ctrl.zolc_stats().continue_events, 0u) << what;
        EXPECT_TRUE(iss.stats() == IssStats{}) << what;
      }
    }
  }
}

/// Programs task 0 to end at the trigger under loop 1, which is never
/// programmed, and activates it: the event at the trigger faults.
void program_faulting_task(ZolcController& c) {
  zolc::TaskEntry task;
  task.end_pc_ofs = kTriggerOfs;
  task.loop_id = 1;
  task.is_last = true;
  task.valid = true;
  c.init_write(isa::Opcode::kZolwTe, 0, task.pack(c.geometry()));
  c.init_write(isa::Opcode::kZolwTs, 0, kStartOfs);
  c.activate(0, kBase);
}

TEST(IssFetchEvent, WalkFaultAtTheTriggerRaisesAfterTheWriteBack) {
  // The event at the trigger faults and is not counted; the instruction
  // there is not retired. An ordinary instruction has already written back
  // when it raises. At a control transfer, taken or falling through, the
  // fault raises before the link or dbne write: pc, registers, controller
  // and counters are as they were. iss, iss-fast and the pipeline (every
  // configuration, as the trigger enters EX) all raise it.
  const std::int32_t target_ofs = kTargetOfs - kTriggerOfs - 1;
  const std::vector<Case> fault_cases = {
      {"addi", b::addi(12, 1, -3), false, {{12, 4}}, {}},
      {"beq_taken", b::beq(1, 2, target_ofs), true, {}, {}},
      {"beq_not_taken", b::beq(1, 3, target_ofs), false, {}, {}},
      {"dbne_taken", b::dbne(4, target_ofs), true, {}, {}},
      {"dbne_not_taken", b::dbne(5, target_ofs), false, {}, {}},
      {"jal", b::jal(pc_of(kTargetOfs)), true, {}, {}},
  };
  for (const ZolcVariant variant : {ZolcVariant::kLite, ZolcVariant::kFull}) {
    for (const Case& tc : fault_cases) {
      std::vector<Instruction> program(kProgramWords, b::nop());
      program[kTriggerOfs] = tc.instr;
      program.back() = b::halt();
      for (const bool fast : {false, true}) {
        const std::string what = tc.name + " on " +
                                 std::string(zolc::variant_name(variant)) +
                                 (fast ? " (iss-fast)" : " (iss)");
        mem::Memory memory;
        test::load_program(memory, kBase, program);
        ZolcController ctrl(variant);
        program_faulting_task(ctrl);
        const AccelSnapshot before = test::snapshot_of(ctrl);

        Iss iss(memory);
        iss.set_accelerator(&ctrl);
        iss.set_fast_path(fast);
        seed_registers(iss.regs());
        iss.set_pc(pc_of(kTriggerOfs));
        RegFile expected_regs = iss.regs();
        for (const RfWrite& w : tc.writes) expected_regs.write(w.reg, w.value);
        EXPECT_THROW(iss.run_slice(1), SimError) << what;

        EXPECT_EQ(iss.pc(), pc_of(kTriggerOfs)) << what;
        EXPECT_TRUE(iss.regs() == expected_regs) << what;
        EXPECT_TRUE(test::snapshot_of(ctrl) == before) << what;
        EXPECT_TRUE(iss.stats() == IssStats{}) << what;
      }
      for (const PipelineConfig& config : test::all_pipeline_configs()) {
        mem::Memory memory;
        test::load_program(memory, kBase, program);
        ZolcController ctrl(variant);
        program_faulting_task(ctrl);
        Pipeline pipe(memory, config);
        pipe.set_accelerator(&ctrl);
        seed_registers(pipe.regs());
        pipe.set_pc(pc_of(kTriggerOfs));
        EXPECT_THROW(pipe.run(1000), SimError)
            << tc.name << " on " << zolc::variant_name(variant)
            << " (pipeline)";
      }
    }
  }
}

TEST(IssFetchEvent, PipelineDropsAWrongPathFetchOfAFaultingTrigger) {
  // A taken beq just before the trigger skips it, so the ISS never raises
  // the faulting event. The pipeline's kRollback policy still fetches the
  // trigger on the wrong path; its fault rides with the fetch and would
  // raise only in EX, so the squash drops it and the run completes as the
  // ISS's does. kGate holds that fetch until the beq resolves.
  const std::int32_t target_ofs = kTargetOfs - kTriggerOfs;
  std::vector<Instruction> program(kProgramWords, b::nop());
  program[kTriggerOfs - 1] = b::beq(1, 2, target_ofs);
  program.back() = b::halt();
  for (const ZolcVariant variant : {ZolcVariant::kLite, ZolcVariant::kFull}) {
    const std::string what(zolc::variant_name(variant));
    std::uint64_t iss_instructions = 0;
    for (const bool fast : {false, true}) {
      mem::Memory memory;
      test::load_program(memory, kBase, program);
      ZolcController ctrl(variant);
      program_faulting_task(ctrl);
      Iss iss(memory);
      iss.set_accelerator(&ctrl);
      iss.set_fast_path(fast);
      seed_registers(iss.regs());
      iss.set_pc(pc_of(kTriggerOfs - 1));
      EXPECT_NO_THROW(iss.run(100)) << what;
      EXPECT_EQ(iss.stats().zolc_fetch_events, 0u) << what;
      iss_instructions = iss.stats().instructions;
    }
    for (const PipelineConfig& config : test::all_pipeline_configs()) {
      const bool rollback = config.speculation == SpeculationPolicy::kRollback;
      mem::Memory memory;
      test::load_program(memory, kBase, program);
      ZolcController ctrl(variant);
      program_faulting_task(ctrl);
      const AccelSnapshot before = test::snapshot_of(ctrl);
      Pipeline pipe(memory, config);
      pipe.set_accelerator(&ctrl);
      seed_registers(pipe.regs());
      pipe.set_pc(pc_of(kTriggerOfs - 1));
      EXPECT_NO_THROW(pipe.run(1000)) << what;
      EXPECT_EQ(pipe.stats().instructions, iss_instructions) << what;
      // kRollback fetched the trigger once and rolled its event back.
      EXPECT_EQ(pipe.stats().zolc_fetch_events, rollback ? 1u : 0u) << what;
      EXPECT_EQ(pipe.stats().zolc_rollbacks, rollback ? 1u : 0u) << what;
      EXPECT_TRUE(test::snapshot_of(ctrl) == before) << what;
    }
  }
}

TEST(IssFetchEvent, IssReportsThePipelinesZolcEvents) {
  // A fetch event the ISS discards at a taken transfer is still counted,
  // as the pipeline counts the event it rolls back. Under kGate the
  // pipeline fetches no trigger on a wrong path, so it and both ISS modes
  // agree on every event counter. Under the default EX-resolve/rollback it
  // also counts the events of wrong-path trigger fetches: none on me_tss
  // (834 continue, 118 done events on every engine), but on deepnest10 it
  // reports four times the ISS's 510 continue events.
  using codegen::MachineKind;
  const std::vector<std::pair<std::string, MachineKind>> cells = {
      {"me_tss", MachineKind::kZolcFull},
      {"deepnest10", MachineKind::kZolcLite},
      {"deepnest10", MachineKind::kZolcFull},
  };
  const auto events = [](const flow::ExperimentResult& r) {
    return std::vector<std::uint64_t>{
        r.zolc_stats.continue_events, r.zolc_stats.done_events,
        r.zolc_stats.cascade_chains, r.stats.zolc_fetch_events};
  };
  for (const auto& [kernel, machine] : cells) {
    const std::string cell =
        kernel + " on " + std::string(codegen::machine_name(machine));
    std::vector<std::vector<std::uint64_t>> iss_events;
    for (const bool fast : {false, true}) {
      flow::RunPlan plan;
      plan.mode = {flow::SimEngine::kIss, fast};
      const auto iss = test::compile_and_run(kernel, machine, plan);
      ASSERT_TRUE(iss.ok()) << cell;
      iss_events.push_back(events(iss.value()));
    }
    EXPECT_EQ(iss_events[0], iss_events[1]) << cell << ": iss vs iss-fast";
    EXPECT_GT(iss_events[0][0], 0u) << cell;
    for (const BranchResolveStage resolve :
         {BranchResolveStage::kExecute, BranchResolveStage::kDecode}) {
      flow::RunPlan plan;
      plan.config = PipelineConfig{resolve, SpeculationPolicy::kGate, true};
      const auto pipe = test::compile_and_run(kernel, machine, plan);
      ASSERT_TRUE(pipe.ok()) << cell;
      EXPECT_EQ(events(pipe.value()), iss_events[0]) << cell << ": gate";
    }
    const auto pipe = test::compile_and_run(kernel, machine);
    ASSERT_TRUE(pipe.ok()) << cell;
    if (kernel == "me_tss") {
      EXPECT_EQ(events(pipe.value()), iss_events[0]) << cell;
      EXPECT_EQ(iss_events[0][0], 834u) << cell;
      EXPECT_EQ(iss_events[0][1], 118u) << cell;
    } else {
      EXPECT_EQ(pipe.value().zolc_stats.continue_events,
                4 * iss_events[0][0])
          << cell;
    }
  }
}

}  // namespace
}  // namespace zolcsim::cpu
