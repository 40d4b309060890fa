// Shared helpers for simulator tests: one representative instruction per
// opcode, program loading, 32-bit immediate materialization, one-call ISS /
// pipeline runs, one controller preemption, and one-call compile + run of a
// registry kernel through the staged toolchain.
#ifndef ZOLCSIM_TESTS_SIM_TEST_UTIL_HPP
#define ZOLCSIM_TESTS_SIM_TEST_UTIL_HPP

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "cpu/iss.hpp"
#include "cpu/pipeline.hpp"
#include "flow/compiled_unit.hpp"
#include "flow/run.hpp"
#include "isa/build.hpp"
#include "isa/encoding.hpp"
#include "mem/memory.hpp"
#include "zolc/controller.hpp"

namespace zolcsim::test {

inline void load_program(mem::Memory& memory, std::uint32_t addr,
                         std::span<const isa::Instruction> program) {
  std::vector<std::uint32_t> words;
  words.reserve(program.size());
  for (const isa::Instruction& instr : program) {
    words.push_back(isa::encode(instr));
  }
  memory.load_words(addr, words);
}

/// `controller`'s snapshot, by value.
inline zolc::AccelSnapshot snapshot_of(const zolc::ZolcController& controller) {
  zolc::AccelSnapshot snapshot;
  controller.snapshot_into(snapshot);
  return snapshot;
}

/// A representative instruction per opcode with distinctive field values,
/// used by the ISA and decoder property suites.
inline std::vector<isa::Instruction> representative_instructions() {
  namespace b = isa::build;
  using isa::Opcode;
  std::vector<isa::Instruction> v;
  v.push_back(b::add(1, 2, 3));
  v.push_back(b::sub(4, 5, 6));
  v.push_back(b::and_(7, 8, 9));
  v.push_back(b::or_(10, 11, 12));
  v.push_back(b::xor_(13, 14, 15));
  v.push_back(b::nor_(16, 17, 18));
  v.push_back(b::slt(19, 20, 21));
  v.push_back(b::sltu(22, 23, 24));
  v.push_back(b::sllv(25, 26, 27));
  v.push_back(b::srlv(28, 29, 30));
  v.push_back(b::srav(31, 1, 2));
  v.push_back(b::sll(3, 4, 31));
  v.push_back(b::srl(5, 6, 1));
  v.push_back(b::sra(7, 8, 16));
  v.push_back(b::jr(31));
  v.push_back(b::jalr(30, 29));
  v.push_back(b::mul(1, 2, 3));
  v.push_back(b::mulh(4, 5, 6));
  v.push_back(b::mulhu(7, 8, 9));
  v.push_back(b::mac(10, 11, 12));
  v.push_back(b::max(13, 14, 15));
  v.push_back(b::min(16, 17, 18));
  v.push_back(b::abs_(19, 20));
  v.push_back(b::clz(21, 22));
  v.push_back(b::addi(1, 2, -32768));
  v.push_back(b::slti(3, 4, 32767));
  v.push_back(b::sltiu(5, 6, 0xFFFF));
  v.push_back(b::andi(7, 8, 0xABCD));
  v.push_back(b::ori(9, 10, 0x1234));
  v.push_back(b::xori(11, 12, 0x0F0F));
  v.push_back(b::lui(13, 0x8000));
  v.push_back(b::beq(1, 2, -4));
  v.push_back(b::bne(3, 4, 100));
  v.push_back(b::blez(5, -1));
  v.push_back(b::bgtz(6, 7));
  v.push_back(b::blt(7, 8, 2));
  v.push_back(b::bge(9, 10, -2));
  v.push_back(b::bltu(11, 12, 3));
  v.push_back(b::bgeu(13, 14, -3));
  v.push_back(b::lb(1, -128, 2));
  v.push_back(b::lh(3, 256, 4));
  v.push_back(b::lw(5, 1024, 6));
  v.push_back(b::lbu(7, 1, 8));
  v.push_back(b::lhu(9, 2, 10));
  v.push_back(b::sb(11, -1, 12));
  v.push_back(b::sh(13, 6, 14));
  v.push_back(b::sw(15, 8, 16));
  v.push_back(b::j(0x0040'0000));
  v.push_back(b::jal(0x0000'1234 & ~3u));
  v.push_back(b::dbne(17, -20));
  v.push_back(b::zolc_write(Opcode::kZolwTe, 31, 8));
  v.push_back(b::zolc_write(Opcode::kZolwTs, 0, 9));
  v.push_back(b::zolc_write(Opcode::kZolwLp0, 7, 10));
  v.push_back(b::zolc_write(Opcode::kZolwLp1, 6, 11));
  v.push_back(b::zolc_write(Opcode::kZolwEx0, 31, 12));
  v.push_back(b::zolc_write(Opcode::kZolwEx1, 30, 13));
  v.push_back(b::zolc_write(Opcode::kZolwEn0, 29, 14));
  v.push_back(b::zolc_write(Opcode::kZolwEn1, 28, 15));
  v.push_back(b::zolc_write(Opcode::kZolwU, 5, 16));
  v.push_back(b::zolon(3, 17));
  v.push_back(b::zoloff());
  v.push_back(b::halt());
  return v;
}

/// Appends instructions materializing `value` into `reg` (1 or 2 ops).
inline void emit_li(std::vector<isa::Instruction>& out, std::uint8_t reg,
                    std::uint32_t value) {
  namespace b = isa::build;
  const auto sv = static_cast<std::int32_t>(value);
  if (sv >= -32768 && sv <= 32767) {
    out.push_back(b::addi(reg, 0, sv));
  } else if ((value & 0xFFFFu) == 0) {
    out.push_back(b::lui(reg, static_cast<std::int32_t>(value >> 16)));
  } else {
    out.push_back(b::lui(reg, static_cast<std::int32_t>(value >> 16)));
    out.push_back(b::ori(reg, reg, static_cast<std::int32_t>(value & 0xFFFFu)));
  }
}

/// The eight pipeline configurations: resolution stage x speculation
/// policy x forwarding.
inline std::vector<cpu::PipelineConfig> all_pipeline_configs() {
  std::vector<cpu::PipelineConfig> configs;
  for (const bool forwarding : {true, false}) {
    for (const auto resolve : {cpu::BranchResolveStage::kExecute,
                               cpu::BranchResolveStage::kDecode}) {
      for (const auto speculation : {cpu::SpeculationPolicy::kRollback,
                                     cpu::SpeculationPolicy::kGate}) {
        configs.push_back(
            cpu::PipelineConfig{resolve, speculation, forwarding});
      }
    }
  }
  return configs;
}

struct RunResult {
  cpu::PipelineStats pipe_stats;
  cpu::RegFile regs;
};

/// Runs `program` (already terminated by halt) on a fresh pipeline.
inline RunResult run_pipeline(std::span<const isa::Instruction> program,
                              cpu::PipelineConfig config = {},
                              zolc::ZolcController* accel = nullptr,
                              std::uint32_t base = 0x1000,
                              std::uint64_t max_cycles = 2'000'000) {
  mem::Memory memory;
  load_program(memory, base, program);
  cpu::Pipeline pipe(memory, config);
  pipe.set_accelerator(accel);
  pipe.set_pc(base);
  pipe.run(max_cycles);
  return RunResult{pipe.stats(), pipe.regs()};
}

struct IssResult {
  cpu::IssStats stats;
  cpu::RegFile regs;
};

inline IssResult run_iss(std::span<const isa::Instruction> program,
                         zolc::ZolcController* accel = nullptr,
                         std::uint32_t base = 0x1000,
                         std::uint64_t max_steps = 2'000'000) {
  mem::Memory memory;
  load_program(memory, base, program);
  cpu::Iss iss(memory);
  iss.set_accelerator(accel);
  iss.set_pc(base);
  iss.run(max_steps);
  return IssResult{iss.stats(), iss.regs()};
}

/// One preemption event on `controller`, as the tenant scheduler performs
/// between two slices of a single tenant: saves the full context, clobbers
/// the controller with reset(), and restores the saved context. Throws
/// SimError when the restore fails (always a bug: the context came from
/// this controller).
inline void preempt_cycle(zolc::ZolcController& controller) {
  const zolc::ZolcContext context = controller.save_context();
  controller.reset();  // clobber: restore must rebuild everything
  if (auto restored = controller.restore_context(context); !restored.ok()) {
    throw SimError("context restore failed: " + restored.error().to_string());
  }
}

/// Compiles a registry kernel for `machine` and runs the unit under `plan`
/// (flow::CompiledUnit::compile + flow::run), surfacing either stage's
/// error.
inline Result<flow::ExperimentResult> compile_and_run(
    std::string_view kernel, codegen::MachineKind machine,
    const flow::RunPlan& plan = {}, const zolc::ZolcGeometry& geometry = {},
    const kernels::KernelEnv& env = {}) {
  auto unit = flow::CompiledUnit::compile(
      {std::string(kernel), machine, geometry, env});
  if (!unit.ok()) return std::move(unit).error();
  return flow::run(unit.value(), plan);
}

}  // namespace zolcsim::test

#endif  // ZOLCSIM_TESTS_SIM_TEST_UTIL_HPP
