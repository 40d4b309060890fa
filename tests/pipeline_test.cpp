// Cycle-accurate pipeline behaviour: exact cycle counts for hazard and
// penalty scenarios, plus randomized ISS co-simulation.
#include <gtest/gtest.h>

#include <random>

#include "sim_test_util.hpp"

namespace zolcsim::cpu {
namespace {

namespace b = isa::build;
using isa::Instruction;
using test::emit_li;
using test::run_iss;
using test::run_pipeline;

/// Straight-line, no-hazard program of k instructions retires in k+4 cycles
/// (fill latency of the 5-stage pipe).
TEST(PipelineTiming, StraightLineFillLatency) {
  std::vector<Instruction> prog;
  for (int i = 0; i < 5; ++i) prog.push_back(b::addi(1 + i, 0, i));
  prog.push_back(b::halt());
  const auto r = run_pipeline(prog);
  EXPECT_EQ(r.pipe_stats.cycles, 6u + 4u);
  EXPECT_EQ(r.pipe_stats.instructions, 6u);
  EXPECT_EQ(r.pipe_stats.load_use_stalls, 0u);
}

TEST(PipelineTiming, ForwardingEliminatesAluStalls) {
  std::vector<Instruction> prog;
  prog.push_back(b::addi(1, 0, 1));
  prog.push_back(b::add(2, 1, 1));  // EX->EX forward
  prog.push_back(b::add(3, 2, 2));
  prog.push_back(b::add(4, 3, 3));
  prog.push_back(b::halt());
  const auto r = run_pipeline(prog);
  EXPECT_EQ(r.regs.read(4), 8);
  EXPECT_EQ(r.pipe_stats.cycles, 5u + 4u);
  EXPECT_EQ(r.pipe_stats.load_use_stalls, 0u);
}

TEST(PipelineTiming, MemToExForwardAtDistanceTwo) {
  std::vector<Instruction> prog;
  emit_li(prog, 1, 0x2000);
  emit_li(prog, 2, 21);
  prog.push_back(b::sw(2, 0, 1));
  prog.push_back(b::lw(3, 0, 1));
  prog.push_back(b::nop());          // one instruction of slack
  prog.push_back(b::add(4, 3, 3));   // MEM/WB -> EX forward
  prog.push_back(b::halt());
  const auto r = run_pipeline(prog);
  EXPECT_EQ(r.regs.read(4), 42);
  EXPECT_EQ(r.pipe_stats.load_use_stalls, 0u);
}

TEST(PipelineTiming, LoadUseStallsExactlyOnce) {
  std::vector<Instruction> prog;
  emit_li(prog, 1, 0x2000);
  emit_li(prog, 2, 7);
  prog.push_back(b::sw(2, 0, 1));
  prog.push_back(b::lw(3, 0, 1));
  prog.push_back(b::add(4, 3, 3));  // immediate use
  prog.push_back(b::halt());
  const auto r = run_pipeline(prog);
  EXPECT_EQ(r.regs.read(4), 14);
  EXPECT_EQ(r.pipe_stats.load_use_stalls, 1u);
  EXPECT_EQ(r.pipe_stats.cycles, 6u + 4u + 1u);
}

TEST(PipelineTiming, NoForwardingConfigPaysRawStalls) {
  PipelineConfig cfg;
  cfg.forwarding = false;
  std::vector<Instruction> prog;
  prog.push_back(b::addi(1, 0, 1));
  prog.push_back(b::add(2, 1, 1));  // must wait for write-back
  prog.push_back(b::halt());
  const auto r = run_pipeline(prog, cfg);
  EXPECT_EQ(r.regs.read(2), 2);
  EXPECT_EQ(r.pipe_stats.raw_stalls, 2u);
  EXPECT_EQ(r.pipe_stats.cycles, 3u + 4u + 2u);
}

TEST(PipelineTiming, TakenBranchCostsTwoInExecuteResolution) {
  std::vector<Instruction> prog;
  prog.push_back(b::beq(0, 0, 1));    // always taken, skip the marker
  prog.push_back(b::addi(10, 0, 1));  // squashed
  prog.push_back(b::halt());
  const auto r = run_pipeline(prog);
  EXPECT_EQ(r.regs.read(10), 0);
  EXPECT_EQ(r.pipe_stats.taken_control, 1u);
  EXPECT_EQ(r.pipe_stats.control_flush_slots, 2u);
  EXPECT_EQ(r.pipe_stats.instructions, 2u);
  EXPECT_EQ(r.pipe_stats.cycles, 2u + 4u + 2u);
}

TEST(PipelineTiming, NotTakenBranchIsFree) {
  std::vector<Instruction> prog;
  prog.push_back(b::bne(0, 0, 1));    // never taken
  prog.push_back(b::addi(10, 0, 1));
  prog.push_back(b::halt());
  const auto r = run_pipeline(prog);
  EXPECT_EQ(r.regs.read(10), 1);
  EXPECT_EQ(r.pipe_stats.control_flush_slots, 0u);
  EXPECT_EQ(r.pipe_stats.cycles, 3u + 4u);
}

TEST(PipelineTiming, TakenBranchCostsOneInDecodeResolution) {
  PipelineConfig cfg;
  cfg.branch_resolve = BranchResolveStage::kDecode;
  std::vector<Instruction> prog;
  prog.push_back(b::beq(0, 0, 1));
  prog.push_back(b::addi(10, 0, 1));
  prog.push_back(b::halt());
  const auto r = run_pipeline(prog, cfg);
  EXPECT_EQ(r.regs.read(10), 0);
  EXPECT_EQ(r.pipe_stats.control_flush_slots, 1u);
  EXPECT_EQ(r.pipe_stats.cycles, 2u + 4u + 1u);
}

TEST(PipelineTiming, DecodeResolutionInterlocksOnFreshOperand) {
  PipelineConfig cfg;
  cfg.branch_resolve = BranchResolveStage::kDecode;
  std::vector<Instruction> prog;
  prog.push_back(b::addi(1, 0, 1));
  prog.push_back(b::bne(1, 0, 1));    // needs r1 while addi is in EX
  prog.push_back(b::addi(10, 0, 1));  // squashed
  prog.push_back(b::halt());
  const auto r = run_pipeline(prog, cfg);
  EXPECT_EQ(r.regs.read(10), 0);
  EXPECT_EQ(r.pipe_stats.interlock_stalls, 1u);
  EXPECT_EQ(r.pipe_stats.cycles, 3u + 4u + 1u + 1u);
}

TEST(PipelineTiming, DbneLoopFormula) {
  constexpr int kIters = 10;
  std::vector<Instruction> prog;
  emit_li(prog, 1, kIters);
  prog.push_back(b::addi(2, 2, 1));
  prog.push_back(b::dbne(1, -2));
  prog.push_back(b::halt());
  const auto r = run_pipeline(prog);
  EXPECT_EQ(r.regs.read(2), kIters);
  EXPECT_EQ(r.regs.read(1), 0);
  const std::uint64_t instrs = 1 + 2 * kIters + 1;
  EXPECT_EQ(r.pipe_stats.instructions, instrs);
  EXPECT_EQ(r.pipe_stats.cycles, instrs + 4 + 2 * (kIters - 1));
}

TEST(PipelineControl, JumpAndLink) {
  const std::uint32_t base = 0x1000;
  std::vector<Instruction> prog;
  prog.push_back(b::addi(4, 0, 1));
  prog.push_back(b::jal(base + 0x10));
  prog.push_back(b::addi(5, 0, 1));
  prog.push_back(b::halt());
  prog.push_back(b::addi(6, 0, 1));
  prog.push_back(b::jr(31));
  const auto r = run_pipeline(prog, {}, nullptr, base);
  EXPECT_EQ(r.regs.read(5), 1);
  EXPECT_EQ(r.regs.read(6), 1);
  EXPECT_EQ(r.regs.read_u(31), base + 8);
}

TEST(PipelineControl, WrongPathGarbageDoesNotTrap) {
  mem::Memory memory;
  const std::uint32_t base = 0x1000;
  memory.load_words(base, std::vector<std::uint32_t>{
                              isa::encode(b::beq(0, 0, 1)),  // taken
                              0xFFFF'FFFFu,                  // shadow garbage
                              isa::encode(b::halt()),
                          });
  Pipeline pipe(memory);
  pipe.set_pc(base);
  EXPECT_NO_THROW(pipe.run(100));
  EXPECT_TRUE(pipe.halted());
}

TEST(PipelineControl, CorrectPathGarbageTrapsAtCommit) {
  mem::Memory memory;
  const std::uint32_t base = 0x1000;
  memory.load_words(base, std::vector<std::uint32_t>{
                              0xFFFF'FFFFu,
                              isa::encode(b::halt()),
                          });
  Pipeline pipe(memory);
  pipe.set_pc(base);
  EXPECT_THROW(pipe.run(100), SimError);
}

TEST(PipelineControl, InvalidWordInDecodedImageTrapsAtCommit) {
  // The image covers the word, so fetch never decodes memory (which holds
  // a valid nop here); the invalid decoded record must still trap, and a
  // wrong-path one must not.
  const std::uint32_t base = 0x1000;
  const std::vector<Instruction> code = {Instruction{}, b::halt()};
  const std::vector<Instruction> shadowed = {b::beq(0, 0, 1), Instruction{},
                                             b::halt()};
  for (const auto& [program, traps] :
       {std::pair{code, true}, std::pair{shadowed, false}}) {
    mem::Memory memory;
    memory.load_words(base, std::vector<std::uint32_t>(program.size(), 0));
    const DecodedImage image(base, program);
    Pipeline pipe(memory);
    pipe.set_code_image(image);
    pipe.set_pc(base);
    if (traps) {
      EXPECT_THROW(pipe.run(100), SimError);
    } else {
      EXPECT_NO_THROW(pipe.run(100));
      EXPECT_TRUE(pipe.halted());
    }
  }
}

TEST(PipelineControl, RunHonorsCycleLimit) {
  mem::Memory memory;
  const std::uint32_t base = 0x1000;
  memory.load_words(base,
                    std::vector<std::uint32_t>{isa::encode(b::j(base))});
  Pipeline pipe(memory);
  pipe.set_pc(base);
  EXPECT_THROW(pipe.run(500), SimError);
}

// ---------------- randomized ISS co-simulation ----------------

std::vector<Instruction> random_program(std::uint32_t seed) {
  std::mt19937 rng(seed);
  const auto pick = [&rng](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  std::vector<Instruction> prog;
  emit_li(prog, 1, 0x4000);  // data base in r1
  // Seed registers r2..r9 with varied values.
  for (std::uint8_t r = 2; r <= 9; ++r) {
    emit_li(prog, r, seed * 2654435761u + r * 40503u);
  }
  constexpr int kBody = 120;
  for (int i = 0; i < kBody; ++i) {
    const std::uint8_t rd = static_cast<std::uint8_t>(pick(2, 9));
    const std::uint8_t rs = static_cast<std::uint8_t>(pick(1, 9));
    const std::uint8_t rt = static_cast<std::uint8_t>(pick(1, 9));
    switch (pick(0, 11)) {
      case 0: prog.push_back(b::add(rd, rs, rt)); break;
      case 1: prog.push_back(b::sub(rd, rs, rt)); break;
      case 2: prog.push_back(b::xor_(rd, rs, rt)); break;
      case 3: prog.push_back(b::slt(rd, rs, rt)); break;
      case 4: prog.push_back(b::mul(rd, rs, rt)); break;
      case 5: prog.push_back(b::mac(rd, rs, rt)); break;
      case 6: prog.push_back(b::addi(rd, rs, pick(-1024, 1024))); break;
      case 7: prog.push_back(b::sll(rd, rt, static_cast<std::uint8_t>(pick(0, 31)))); break;
      case 8:
        prog.push_back(b::sw(rt, pick(0, 63) * 4, 1));
        break;
      case 9:
        prog.push_back(b::lw(rd, pick(0, 63) * 4, 1));
        break;
      case 10: {
        // Forward conditional branch skipping 1..3 instructions (always in
        // range: the tail below is long enough).
        const int skip = pick(1, 3);
        switch (pick(0, 2)) {
          case 0: prog.push_back(b::beq(rs, rt, skip)); break;
          case 1: prog.push_back(b::bne(rs, rt, skip)); break;
          default: prog.push_back(b::blt(rs, rt, skip)); break;
        }
        break;
      }
      default:
        prog.push_back(b::max(rd, rs, rt));
        break;
    }
  }
  // Tail padding so trailing forward branches stay in range.
  for (int i = 0; i < 4; ++i) prog.push_back(b::nop());
  prog.push_back(b::halt());
  return prog;
}

class CoSim : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(CoSim, PipelineMatchesIssArchitecturalState) {
  const auto prog = random_program(GetParam());

  mem::Memory iss_mem;
  test::load_program(iss_mem, 0x1000, prog);
  Iss iss(iss_mem);
  iss.set_pc(0x1000);
  iss.run(1'000'000);

  for (const auto config :
       {PipelineConfig{},
        PipelineConfig{BranchResolveStage::kDecode, SpeculationPolicy::kRollback,
                       true},
        PipelineConfig{BranchResolveStage::kExecute, SpeculationPolicy::kRollback,
                       false}}) {
    mem::Memory pipe_mem;
    test::load_program(pipe_mem, 0x1000, prog);
    Pipeline pipe(pipe_mem, config);
    pipe.set_pc(0x1000);
    pipe.run(1'000'000);

    EXPECT_TRUE(pipe.regs() == iss.regs())
        << "register divergence, seed=" << GetParam();
    EXPECT_EQ(pipe.stats().instructions, iss.stats().instructions);
    EXPECT_EQ(pipe_mem.read_words(0x4000, 64), iss_mem.read_words(0x4000, 64));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoSim,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u,
                                           55u, 89u, 144u, 233u));

}  // namespace
}  // namespace zolcsim::cpu
