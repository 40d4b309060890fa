// Randomized structural property test: generate random well-formed kernels
// (nested counted loops, conditionals, break-outs, random ALU bodies) and
// check that every machine configuration computes the same architectural
// result, with ZOLC machines additionally co-simulated against the ISS and
// against their own pipeline run with a retire hook, which steps the loop
// iterations the unhooked run may skip. This is the widest net over the
// lowering + controller + pipeline stack.
#include <gtest/gtest.h>

#include <random>

#include "codegen/lower.hpp"
#include "cpu/iss.hpp"
#include "cpu/pipeline.hpp"
#include "flow/run.hpp"
#include "sim_test_util.hpp"
#include "zolc/controller.hpp"

namespace zolcsim::codegen {
namespace {

namespace b = isa::build;
using isa::Opcode;

/// Accumulator registers whose final values define the kernel's observable
/// result (checked across machines).
constexpr std::uint8_t kAccRegs[] = {16, 17, 18, 19};
/// Index registers by loop depth.
constexpr std::uint8_t kIndexRegs[] = {1, 2, 3, 4};
/// Temps the random bodies may write.
constexpr std::uint8_t kTempRegs[] = {5, 6, 7, 10, 11, 12};

class RandomKernel {
 public:
  explicit RandomKernel(std::uint32_t seed) : rng_(seed) {}

  std::vector<KNode> generate() {
    KernelBuilder kb;
    // Seed accumulators with small values.
    for (const std::uint8_t acc : kAccRegs) {
      kb.li(acc, pick(0, 9));
    }
    kb.li(13, pick(1, 5));  // comparison fodder for ifs/breaks
    emit_scope(kb, /*depth=*/0, /*in_loop=*/false);
    return kb.take();
  }

 private:
  int pick(int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng_);
  }

  void emit_alu(KernelBuilder& kb) {
    const auto acc = kAccRegs[static_cast<unsigned>(pick(0, 3))];
    const auto tmp = kTempRegs[static_cast<unsigned>(pick(0, 5))];
    switch (pick(0, 5)) {
      case 0:
        kb.op(b::addi(acc, acc, pick(1, 7)));
        break;
      case 1:
        kb.op(b::add(acc, acc, kAccRegs[static_cast<unsigned>(pick(0, 3))]));
        break;
      case 2:
        kb.op(b::addi(tmp, acc, pick(-3, 3)));
        kb.op(b::xor_(acc, acc, tmp));
        break;
      case 3:
        kb.op(b::sll(tmp, acc, static_cast<std::uint8_t>(pick(0, 2))));
        kb.op(b::add(acc, acc, tmp));
        break;
      case 4:
        kb.op(b::max(acc, acc, kAccRegs[static_cast<unsigned>(pick(0, 3))]));
        break;
      default:
        kb.op(b::mul(tmp, acc, 13));
        kb.op(b::sub(acc, tmp, acc));
        break;
    }
  }

  void emit_scope(KernelBuilder& kb, unsigned depth, bool in_loop) {
    const int items = pick(1, 3);
    for (int i = 0; i < items; ++i) {
      const int choice = pick(0, 9);
      if (choice <= 3 || depth >= 4) {
        emit_alu(kb);
      } else if (choice <= 6) {
        // Nested counted loop (possibly with a loop index read).
        const std::uint8_t idx = kIndexRegs[depth];
        const int trips = pick(1, 5);
        kb.for_count(idx, 0, trips, 1, [&] {
          if (pick(0, 1) == 0) {
            const auto acc = kAccRegs[static_cast<unsigned>(pick(0, 3))];
            kb.op(b::add(acc, acc, idx));  // index-consuming body
          }
          emit_scope(kb, depth + 1, /*in_loop=*/true);
          if (pick(0, 2) == 0) {
            kb.break_if(Opcode::kBgtz, kAccRegs[static_cast<unsigned>(
                                           pick(0, 3))],
                        0);
          }
        });
      } else if (choice <= 8) {
        kb.if_cond(pick(0, 1) == 0 ? Opcode::kBlt : Opcode::kBge,
                   kAccRegs[static_cast<unsigned>(pick(0, 3))], 13, [&] {
                     emit_alu(kb);
                     if (depth < 4 && pick(0, 1) == 0) emit_alu(kb);
                   });
      } else if (in_loop) {
        kb.break_if(Opcode::kBeq,
                    kAccRegs[static_cast<unsigned>(pick(0, 3))],
                    kAccRegs[static_cast<unsigned>(pick(0, 3))]);
      } else {
        emit_alu(kb);
      }
    }
  }

  std::mt19937 rng_;
};

struct MachineOutcome {
  std::array<std::int32_t, 4> accs{};
  std::uint64_t cycles = 0;
  bool ok = false;
  std::string error;
};

/// One ISS execution tier: plain `iss`, `iss-fast` (loop-summary replay),
/// or plain `iss` preempted every `quantum` instructions with a full
/// controller context save/clobber/restore (0 = never).
struct IssTier {
  const char* name;
  bool fast_path;
  std::uint64_t quantum;
};

struct IssOutcome {
  mem::Memory memory;
  cpu::RegFile regs;
  cpu::IssStats stats;
};

IssOutcome run_iss_tier(const Program& prog, MachineKind machine,
                        const IssTier& tier) {
  IssOutcome out;
  prog.load_into(out.memory);
  std::unique_ptr<zolc::ZolcController> ctrl;
  if (const auto variant = machine_zolc_variant(machine)) {
    ctrl = std::make_unique<zolc::ZolcController>(*variant);
  }
  const cpu::DecodedImage image(prog.base, prog.code);
  cpu::Iss iss(out.memory);
  iss.set_accelerator(ctrl.get());
  iss.set_code_image(image);
  iss.set_fast_path(tier.fast_path);
  iss.set_pc(prog.base);
  if (tier.quantum == 0) {
    iss.run(5'000'000);
  } else {
    std::uint64_t executed = 0;
    while (!iss.halted() && executed < 5'000'000) {
      executed += iss.run_slice(tier.quantum);
      if (ctrl != nullptr && !iss.halted()) {
        test::preempt_cycle(*ctrl);
      }
    }
    EXPECT_TRUE(iss.halted()) << "step limit on " << tier.name;
  }
  out.regs = iss.regs();
  out.stats = iss.stats();
  return out;
}

/// Runs `kernel` on `machine`'s pipeline, fetching through the program's
/// code image, under the pipeline configuration `seed` selects (the seeds
/// rotate through all eight), and co-simulates it on all three ISS tiers,
/// each with an independent controller: registers and memory must match the
/// pipeline, and IssStats must match across tiers. A ZOLC machine's pipeline
/// run is also repeated with a retire hook, which must not change a
/// statistic, a register or a byte of memory.
MachineOutcome run_machine(const std::vector<KNode>& kernel,
                           MachineKind machine, std::uint32_t seed) {
  MachineOutcome out;
  auto prog = lower(kernel, machine, 0x1000);
  if (!prog.ok()) {
    out.error = prog.error().to_string();
    return out;
  }
  mem::Memory memory;
  prog.value().load_into(memory);
  std::unique_ptr<zolc::ZolcController> pipe_ctrl;
  if (const auto variant = machine_zolc_variant(machine)) {
    pipe_ctrl = std::make_unique<zolc::ZolcController>(*variant);
  }
  const auto configs = test::all_pipeline_configs();
  const cpu::PipelineConfig config = configs[seed % configs.size()];
  const cpu::DecodedImage image(prog.value().base, prog.value().code);
  cpu::Pipeline pipe(memory, config);
  pipe.set_accelerator(pipe_ctrl.get());
  pipe.set_code_image(image);
  pipe.set_pc(0x1000);
  pipe.run(5'000'000);

  if (pipe_ctrl != nullptr) {
    // The same run stepped every cycle: a retire hook turns the pipeline's
    // steady-state skip off, and the skip must be invisible.
    mem::Memory stepped_memory;
    prog.value().load_into(stepped_memory);
    zolc::ZolcController stepped_ctrl(pipe_ctrl->variant());
    cpu::Pipeline stepped(stepped_memory, config);
    stepped.set_accelerator(&stepped_ctrl);
    stepped.set_code_image(image);
    stepped.set_retire_hook([](std::uint32_t, const isa::Instruction&) {});
    stepped.set_pc(0x1000);
    stepped.run(5'000'000);
    const std::string what = std::string(machine_name(machine)) +
                             " seed=" + std::to_string(seed);
    EXPECT_TRUE(pipe.stats() == stepped.stats()) << "PipelineStats, " << what;
    EXPECT_TRUE(pipe_ctrl->zolc_stats() == stepped_ctrl.zolc_stats())
        << "ZolcStats, " << what;
    EXPECT_TRUE(pipe.regs() == stepped.regs()) << "registers, " << what;
    EXPECT_TRUE(memory == stepped_memory) << "memory, " << what;
  }

  const std::uint64_t quantum = 1 + seed * 7919u % 61u;
  const IssTier tiers[] = {
      {"iss", false, 0}, {"iss-fast", true, 0}, {"iss-preempt", false, quantum}};
  const IssOutcome base = run_iss_tier(prog.value(), machine, tiers[0]);
  for (const IssTier& tier : tiers) {
    const IssOutcome got = run_iss_tier(prog.value(), machine, tier);
    const std::string what = std::string(tier.name) + " on " +
                             std::string(machine_name(machine)) +
                             " seed=" + std::to_string(seed);
    EXPECT_TRUE(pipe.regs() == got.regs) << "pipeline/ISS registers, " << what;
    EXPECT_TRUE(memory == got.memory) << "pipeline/ISS memory, " << what;
    EXPECT_EQ(pipe.stats().instructions, got.stats.instructions) << what;
    EXPECT_TRUE(got.stats == base.stats) << "IssStats vs iss, " << what;
  }

  for (unsigned i = 0; i < 4; ++i) out.accs[i] = pipe.regs().read(kAccRegs[i]);
  out.cycles = pipe.stats().cycles;
  out.ok = true;
  return out;
}

class KernelFuzz : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(KernelFuzz, AllMachinesComputeTheSameResult) {
  RandomKernel generator(GetParam() * 2654435761u + 17u);
  const auto kernel = generator.generate();

  const auto baseline =
      run_machine(kernel, MachineKind::kXrDefault, GetParam());
  ASSERT_TRUE(baseline.ok) << baseline.error;

  for (const MachineKind machine :
       {MachineKind::kXrHrdwil, MachineKind::kUZolc, MachineKind::kZolcLite,
        MachineKind::kZolcFull}) {
    const auto got = run_machine(kernel, machine, GetParam());
    ASSERT_TRUE(got.ok) << machine_name(machine) << ": " << got.error;
    EXPECT_EQ(got.accs, baseline.accs)
        << "architectural divergence on " << machine_name(machine)
        << " seed=" << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelFuzz, ::testing::Range(1u, 41u));

// Also fuzz the decoder: random words either decode to a canonical
// instruction (encode(decode(w)) == w) or are rejected.
TEST(DecoderFuzz, DecodeIsCanonicalOnRandomWords) {
  std::mt19937 rng(0xD15EA5E);
  for (int i = 0; i < 20000; ++i) {
    const std::uint32_t word = rng();
    const isa::Instruction instr = isa::decode(word);
    if (instr.valid()) {
      EXPECT_EQ(isa::encode(instr), word);
    }
  }
}

}  // namespace
}  // namespace zolcsim::codegen
