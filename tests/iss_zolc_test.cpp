// Directed ISS tests of fetch-time ZOLC speculation: a task-end event raised
// at the fetch of an instruction is kept exactly when that instruction is
// not a taken control transfer, and rolled back (controller state, index
// write-back and redirect) when it is. Every instruction kind is placed on
// the trigger PC of every ZOLC variant, fetching through the code image and
// through memory.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "sim_test_util.hpp"
#include "zolc/controller.hpp"

namespace zolcsim::cpu {
namespace {

namespace b = isa::build;
using isa::Instruction;
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
  std::optional<std::uint32_t> stored_at;  ///< a store of kStoreValue
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
      {"alu", b::add(12, 1, 3), false, {{12, 16}}, {}},
      {"load", b::lw(13, 0, 9), false, {{13, kLoadValue}}, {}},
      {"store", b::sw(10, 4, 9), false, {}, kDataAddr + 4},
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
        const AccelSnapshot before = ctrl.snapshot();

        const DecodedImage image(kBase, program);
        Iss iss(memory);
        iss.set_accelerator(&ctrl);
        if (use_image) iss.set_code_image(image);
        seed_registers(iss.regs());
        iss.set_pc(pc_of(kTriggerOfs));
        RegFile expected_regs = iss.regs();
        iss.step();

        // A kept continue event advances the index to 1, writes it back and
        // redirects to the body start; a taken transfer discards it.
        AccelSnapshot expected_snap = before;
        std::uint32_t expected_pc = pc_of(kTargetOfs);
        if (!tc.taken) {
          expected_snap.loop_current[0] = 1;
          expected_regs.write(kIndexReg, 1);
          expected_pc = pc_of(kStartOfs);
        }
        for (const RfWrite& w : tc.writes) expected_regs.write(w.reg, w.value);

        EXPECT_EQ(iss.pc(), expected_pc) << what;
        EXPECT_TRUE(iss.regs() == expected_regs) << what;
        EXPECT_TRUE(ctrl.snapshot() == expected_snap) << what;
        EXPECT_EQ(ctrl.trigger_pc(), pc_of(kTriggerOfs)) << what;
        IssStats expected_stats;
        expected_stats.instructions = 1;
        expected_stats.taken_control = tc.taken ? 1 : 0;
        expected_stats.zolc_fetch_events = 1;  // counted even when discarded
        EXPECT_TRUE(iss.stats() == expected_stats) << what;
        if (tc.stored_at) {
          EXPECT_EQ(memory.read32(*tc.stored_at),
                    static_cast<std::uint32_t>(kStoreValue))
              << what;
        }
      }
    }
  }
}

}  // namespace
}  // namespace zolcsim::cpu
