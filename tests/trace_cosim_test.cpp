// Retirement-stream co-simulation: the pipeline must retire exactly the
// same instruction sequence, in the same program order, as the ISS golden
// model -- the strongest equivalence check available (final-state equality
// can mask compensating errors). Exercised on ZOLC-heavy kernels where
// wrong-path fetches and rollbacks are constant. Also pins the predecoded-
// image fetch path against decoding from memory.
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "codegen/lower.hpp"
#include "cpu/iss.hpp"
#include "cpu/pipeline.hpp"
#include "flow/compiled_unit.hpp"
#include "flow/workload.hpp"
#include "kernels/kernels.hpp"
#include "zolc/controller.hpp"

namespace zolcsim::cpu {
namespace {

struct Retired {
  std::uint32_t pc;
  isa::Opcode op;

  friend bool operator==(const Retired&, const Retired&) = default;
};

std::vector<Retired> pipeline_trace(const codegen::Program& prog,
                                    const kernels::Kernel* kernel,
                                    PipelineConfig config = {}) {
  mem::Memory memory;
  prog.load_into(memory);
  if (kernel != nullptr) kernel->setup({}, memory);
  std::unique_ptr<zolc::ZolcController> controller;
  if (const auto variant = codegen::machine_zolc_variant(prog.machine)) {
    controller = std::make_unique<zolc::ZolcController>(*variant);
  }
  Pipeline pipe(memory, config);
  pipe.set_accelerator(controller.get());
  pipe.set_pc(prog.base);
  std::vector<Retired> trace;
  pipe.set_retire_hook([&trace](std::uint32_t pc, const isa::Instruction& i) {
    trace.push_back(Retired{pc, i.op});
  });
  pipe.run(50'000'000);
  return trace;
}

std::vector<Retired> iss_trace(const codegen::Program& prog,
                               const kernels::Kernel* kernel) {
  mem::Memory memory;
  prog.load_into(memory);
  if (kernel != nullptr) kernel->setup({}, memory);
  std::unique_ptr<zolc::ZolcController> controller;
  if (const auto variant = codegen::machine_zolc_variant(prog.machine)) {
    controller = std::make_unique<zolc::ZolcController>(*variant);
  }
  Iss iss(memory);
  iss.set_accelerator(controller.get());
  iss.set_pc(prog.base);
  std::vector<Retired> trace;
  iss.set_retire_hook([&trace](std::uint32_t pc, const isa::Instruction& i) {
    trace.push_back(Retired{pc, i.op});
  });
  iss.run(50'000'000);
  return trace;
}

void expect_traces_equal(const std::vector<Retired>& a,
                         const std::vector<Retired>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << "first divergence at retirement #" << i
                          << " (pc " << a[i].pc << " vs " << b[i].pc << ")";
  }
}

struct TraceCase {
  const char* kernel;
  codegen::MachineKind machine;
};

class TraceCoSim : public ::testing::TestWithParam<TraceCase> {};

TEST_P(TraceCoSim, PipelineRetiresExactlyTheIssStream) {
  const auto& [name, machine] = GetParam();
  const kernels::Kernel* kernel = kernels::find_kernel(name);
  ASSERT_NE(kernel, nullptr);
  auto prog = codegen::lower(kernel->build({}), machine, 0x1000);
  ASSERT_TRUE(prog.ok());

  const auto reference = iss_trace(prog.value(), kernel);
  ASSERT_FALSE(reference.empty());
  expect_traces_equal(pipeline_trace(prog.value(), kernel), reference);

  // The stream is also microarchitecture-independent.
  PipelineConfig decode_cfg;
  decode_cfg.branch_resolve = BranchResolveStage::kDecode;
  expect_traces_equal(pipeline_trace(prog.value(), kernel, decode_cfg),
                      reference);
  PipelineConfig gate_cfg;
  gate_cfg.speculation = SpeculationPolicy::kGate;
  expect_traces_equal(pipeline_trace(prog.value(), kernel, gate_cfg),
                      reference);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, TraceCoSim,
    ::testing::Values(
        TraceCase{"crc32", codegen::MachineKind::kZolcLite},
        TraceCase{"me_tss", codegen::MachineKind::kZolcFull},
        TraceCase{"me_tss", codegen::MachineKind::kZolcLite},
        TraceCase{"fft", codegen::MachineKind::kUZolc},
        TraceCase{"conv2d", codegen::MachineKind::kZolcLite},
        TraceCase{"vecmax", codegen::MachineKind::kXrDefault},
        TraceCase{"matmul", codegen::MachineKind::kXrHrdwil}),
    [](const ::testing::TestParamInfo<TraceCase>& info) {
      return std::string(info.param.kernel) + "_" +
             std::string(codegen::machine_name(info.param.machine));
    });

TEST(TraceCoSim, WrongPathInstructionsNeverRetire) {
  // A ZOLC program whose body branches constantly (the rollback stress
  // kernel): every retired pc must lie inside the program image, and no
  // instruction after a taken exit's shadow may appear.
  const kernels::Kernel* kernel = kernels::find_kernel("me_tss");
  auto prog = codegen::lower(kernel->build({}),
                             codegen::MachineKind::kZolcFull, 0x1000);
  ASSERT_TRUE(prog.ok());
  const auto trace = pipeline_trace(prog.value(), kernel);
  const std::uint32_t lo = prog.value().base;
  const std::uint32_t hi =
      lo + static_cast<std::uint32_t>(prog.value().code.size()) * 4;
  for (const Retired& r : trace) {
    ASSERT_GE(r.pc, lo);
    ASSERT_LT(r.pc, hi);
    ASSERT_NE(r.op, isa::Opcode::kInvalid);
  }
}

// ---------------- predecoded image vs memory fetch ----------------

/// Runs `unit` on `workload` with engine `E` (Pipeline or Iss), fetching
/// through the unit's predecoded image or decoding from memory. Returns the
/// final statistics and registers; the final memory stays in `workload`.
template <typename E>
auto run_unit(const flow::CompiledUnit& unit, flow::Workload& workload,
              bool use_image) {
  std::unique_ptr<zolc::ZolcController> controller;
  if (const auto variant = codegen::machine_zolc_variant(unit.machine())) {
    controller =
        std::make_unique<zolc::ZolcController>(*variant, unit.geometry());
  }
  E engine(workload.memory());
  engine.set_accelerator(controller.get());
  if (use_image) engine.set_code_image(unit.image());
  engine.set_pc(unit.program().base);
  engine.run(50'000'000);
  return std::pair(engine.stats(), engine.regs());
}

template <typename E>
void expect_image_fetch_invisible(const flow::CompiledUnit& unit) {
  flow::Workload image = flow::Workload::prepare(unit);
  flow::Workload decode = flow::Workload::prepare(unit);
  EXPECT_TRUE(run_unit<E>(unit, image, true) ==
              run_unit<E>(unit, decode, false))
      << codegen::machine_name(unit.machine());
  EXPECT_TRUE(image.memory() == decode.memory())
      << codegen::machine_name(unit.machine());
}

TEST(ImageFetch, MatchesMemoryFetchOnBothEngines) {
  // Every run fetches through the unit's CodeImage; the memory-decode path
  // remains for raw programs without one. The two must be
  // architecturally indistinguishable.
  for (const codegen::MachineKind machine :
       {codegen::MachineKind::kXrDefault, codegen::MachineKind::kZolcFull}) {
    flow::CompileSpec spec;
    spec.kernel = "matmul";
    spec.machine = machine;
    const auto unit = flow::CompiledUnit::compile(spec);
    ASSERT_TRUE(unit.ok()) << unit.error().to_string();
    expect_image_fetch_invisible<Pipeline>(unit.value());
    expect_image_fetch_invisible<Iss>(unit.value());
  }
}

}  // namespace
}  // namespace zolcsim::cpu
