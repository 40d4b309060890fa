// Retirement-stream co-simulation: for every registered kernel on every
// machine, the pipeline must retire exactly the same instruction sequence,
// in the same program order, as the ISS golden model -- the strongest
// equivalence check available (final-state equality can mask compensating
// errors) -- and end with the same register file and memory. Every one of
// the eight pipeline configurations is checked, fetching both through the
// unit's decoded image and by decoding from memory. Two more differentials
// run the pipeline alone, down the two fetch paths and with and without a
// retire hook (a hooked run never skips steady-state loop iterations), and
// each pair must agree on every pipeline and controller statistic as well
// as the final state, also when a cycle budget stops the run inside a loop.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "cpu/iss.hpp"
#include "cpu/pipeline.hpp"
#include "flow/compiled_unit.hpp"
#include "flow/workload.hpp"
#include "harness/sweep.hpp"
#include "kernels/kernels.hpp"
#include "sim_test_util.hpp"
#include "zolc/controller.hpp"

namespace zolcsim::cpu {
namespace {

struct Retired {
  std::uint32_t pc;
  isa::Opcode op;

  friend bool operator==(const Retired&, const Retired&) = default;
};

/// Runs `unit` to completion on `engine` (a Pipeline or an Iss over a
/// Workload prepared for `unit`), fetching through the unit's image or
/// decoding from memory, and returns the retirement stream.
template <typename Engine>
std::vector<Retired> run_traced(Engine& engine, const flow::CompiledUnit& unit,
                                bool use_image) {
  std::unique_ptr<zolc::ZolcController> controller;
  if (const auto variant = codegen::machine_zolc_variant(unit.machine())) {
    controller =
        std::make_unique<zolc::ZolcController>(*variant, unit.geometry());
  }
  engine.set_accelerator(controller.get());
  if (use_image) engine.set_code_image(unit.decoded());
  engine.set_pc(unit.program().base);
  std::vector<Retired> trace;
  engine.set_retire_hook([&trace](std::uint32_t pc, const isa::Instruction& i) {
    trace.push_back(Retired{pc, i.op});
  });
  engine.run(50'000'000);
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
  std::string kernel;
  codegen::MachineKind machine;

  friend void PrintTo(const TraceCase& c, std::ostream* os) {
    *os << c.kernel << " on " << codegen::machine_name(c.machine);
  }
};

std::vector<TraceCase> all_cases() {
  std::vector<TraceCase> cases;
  for (const auto* registry : {&kernels::kernel_registry(),
                               &kernels::extended_kernel_registry()}) {
    for (const auto& kernel : *registry) {
      for (const codegen::MachineKind machine : codegen::kAllMachines) {
        cases.push_back(TraceCase{std::string(kernel->name()), machine});
      }
    }
  }
  return cases;
}

class TraceCoSim : public ::testing::TestWithParam<TraceCase> {};

TEST_P(TraceCoSim, PipelineMatchesTheIssInEveryConfig) {
  flow::CompileSpec spec;
  spec.kernel = GetParam().kernel;
  spec.machine = GetParam().machine;
  const auto compiled = flow::CompiledUnit::compile(spec);
  ASSERT_TRUE(compiled.ok()) << compiled.error().to_string();
  const flow::CompiledUnit& unit = compiled.value();

  flow::Workload reference_wl = flow::Workload::prepare(unit);
  Iss reference_iss(reference_wl.memory());
  const auto reference = run_traced(reference_iss, unit, true);
  ASSERT_FALSE(reference.empty());
  {
    SCOPED_TRACE("ISS decoding from memory");
    flow::Workload wl = flow::Workload::prepare(unit);
    Iss iss(wl.memory());
    expect_traces_equal(run_traced(iss, unit, false), reference);
    EXPECT_TRUE(iss.stats() == reference_iss.stats());
    EXPECT_TRUE(iss.regs() == reference_iss.regs());
    EXPECT_TRUE(wl.memory() == reference_wl.memory());
  }

  for (const PipelineConfig& config : test::all_pipeline_configs()) {
    for (const bool use_image : {true, false}) {
      SCOPED_TRACE(harness::config_name(config) +
                   (use_image ? " (image fetch)" : " (memory fetch)"));
      flow::Workload wl = flow::Workload::prepare(unit);
      Pipeline pipe(wl.memory(), config);
      expect_traces_equal(run_traced(pipe, unit, use_image), reference);
      EXPECT_TRUE(pipe.regs() == reference_iss.regs());
      EXPECT_TRUE(wl.memory() == reference_wl.memory());
    }
  }
}

/// One pipeline run of `unit` under `config`, to completion or until
/// `budget` cycles trap, kept whole for comparison: the run's workload, its
/// controller (if the machine has one) and the pipeline itself. A `hooked`
/// run attaches a retire hook that does nothing, so it steps every cycle.
struct PipelineRun {
  flow::Workload workload;
  std::unique_ptr<zolc::ZolcController> controller;
  Pipeline pipe;
  bool trapped = false;  ///< the budget ran out

  PipelineRun(const flow::CompiledUnit& unit, const PipelineConfig& config,
              bool use_image, bool hooked = false,
              std::uint64_t budget = 50'000'000)
      : workload(flow::Workload::prepare(unit)),
        pipe(workload.memory(), config) {
    if (const auto variant = codegen::machine_zolc_variant(unit.machine())) {
      controller =
          std::make_unique<zolc::ZolcController>(*variant, unit.geometry());
    }
    pipe.set_accelerator(controller.get());
    if (use_image) pipe.set_code_image(unit.decoded());
    if (hooked) {
      pipe.set_retire_hook([](std::uint32_t, const isa::Instruction&) {});
    }
    pipe.set_pc(unit.program().base);
    try {
      pipe.run(budget);
    } catch (const SimError&) {
      trapped = true;
    }
  }
};

/// `a` and `b` agree on every pipeline and controller statistic and on the
/// final state.
void expect_runs_equal(const PipelineRun& a, const PipelineRun& b) {
  EXPECT_EQ(a.trapped, b.trapped);
  EXPECT_TRUE(a.pipe.stats() == b.pipe.stats());
  EXPECT_EQ(a.pipe.pc(), b.pipe.pc());
  EXPECT_TRUE(a.pipe.regs() == b.pipe.regs());
  EXPECT_TRUE(a.workload.memory() == b.workload.memory());
  ASSERT_EQ(a.controller == nullptr, b.controller == nullptr);
  if (a.controller) {
    EXPECT_TRUE(a.controller->zolc_stats() == b.controller->zolc_stats());
    // The whole controller state: tables, live indices and counters.
    EXPECT_TRUE(a.controller->save_context() == b.controller->save_context());
  }
}

flow::CompiledUnit compile_unit(const std::string& kernel,
                                codegen::MachineKind machine) {
  flow::CompileSpec spec;
  spec.kernel = kernel;
  spec.machine = machine;
  auto compiled = flow::CompiledUnit::compile(spec);
  if (!compiled.ok()) {
    ADD_FAILURE() << compiled.error().to_string();
    std::abort();
  }
  return std::move(compiled).value();
}

TEST_P(TraceCoSim, ImageFetchMatchesMemoryFetch) {
  // The image path points the latches at the unit's decoded records; the
  // memory path decodes every fetch into the pipeline's own decode ring.
  flow::CompileSpec spec;
  spec.kernel = GetParam().kernel;
  spec.machine = GetParam().machine;
  const auto compiled = flow::CompiledUnit::compile(spec);
  ASSERT_TRUE(compiled.ok()) << compiled.error().to_string();
  const flow::CompiledUnit& unit = compiled.value();

  for (const PipelineConfig& config : test::all_pipeline_configs()) {
    SCOPED_TRACE(harness::config_name(config));
    const PipelineRun image(unit, config, true);
    const PipelineRun memory(unit, config, false);
    expect_runs_equal(memory, image);
  }
}

TEST_P(TraceCoSim, SkippingMatchesSteppingEveryCycle) {
  // Unhooked, the pipeline charges steady-state iterations of ZOLC loops in
  // closed form and replays them on the ISS; hooked, it steps them.
  const flow::CompiledUnit unit =
      compile_unit(GetParam().kernel, GetParam().machine);
  for (const PipelineConfig& config : test::all_pipeline_configs()) {
    SCOPED_TRACE(harness::config_name(config));
    const PipelineRun skipping(unit, config, true);
    const PipelineRun stepping(unit, config, true, /*hooked=*/true);
    ASSERT_FALSE(skipping.trapped);
    expect_runs_equal(skipping, stepping);
    EXPECT_TRUE(stepping.pipe.skip_stats() == SkipStats{});
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, TraceCoSim, ::testing::ValuesIn(all_cases()),
    [](const ::testing::TestParamInfo<TraceCase>& info) {
      return info.param.kernel + "_" +
             std::string(codegen::machine_name(info.param.machine));
    });

TEST(SteadySkip, EngagesOnMatmulAndNeverUnderARetireHook) {
  const flow::CompiledUnit unit =
      compile_unit("matmul", codegen::MachineKind::kZolcFull);
  const PipelineRun skipping(unit, PipelineConfig{}, true);
  const SkipStats& skip = skipping.pipe.skip_stats();
  EXPECT_GT(skip.engagements, 0u);
  EXPECT_GE(skip.iterations, skip.engagements);
  EXPECT_GT(skip.cycles, 0u);
  EXPECT_LT(skip.cycles, skipping.pipe.stats().cycles);
  const PipelineRun stepping(unit, PipelineConfig{}, true, /*hooked=*/true);
  EXPECT_TRUE(stepping.pipe.skip_stats() == SkipStats{});
  // Without a code image there is no body to scan, so the pipeline steps.
  const PipelineRun decoding(unit, PipelineConfig{}, false);
  EXPECT_TRUE(decoding.pipe.skip_stats() == SkipStats{});
}

struct BudgetCase {
  std::string kernel;
  codegen::MachineKind machine;

  friend void PrintTo(const BudgetCase& c, std::ostream* os) {
    *os << c.kernel << " on " << codegen::machine_name(c.machine);
  }
};

class SkipBudget : public ::testing::TestWithParam<BudgetCase> {};

TEST_P(SkipBudget, TrapsWhereSteppingTraps) {
  // A skip never charges a cycle past the budget, so a budget that runs out
  // inside a skippable loop traps at the same cycle and pc, with the same
  // state, as stepping every cycle does.
  const flow::CompiledUnit unit =
      compile_unit(GetParam().kernel, GetParam().machine);
  const PipelineConfig config;
  const auto skips = [&](std::uint64_t budget) {
    return PipelineRun(unit, config, true, false, budget).pipe.skip_stats();
  };
  const PipelineRun whole(unit, config, true);
  ASSERT_GT(whole.pipe.skip_stats().engagements, 0u);

  // The smallest budget under which the first skip engages affords exactly
  // one iteration of a loop that has more left.
  std::uint64_t lo = 0;
  std::uint64_t hi = whole.pipe.stats().cycles;
  while (lo + 1 < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    (skips(mid).engagements == 0 ? lo : hi) = mid;
  }
  const SkipStats first = skips(hi);
  ASSERT_EQ(first.engagements, 1u);
  ASSERT_EQ(first.iterations, 1u);
  const std::uint64_t period = first.cycles;
  EXPECT_EQ(skips(hi + period).iterations, 2u);

  const std::uint64_t cycles = whole.pipe.stats().cycles;
  for (const std::uint64_t budget :
       {hi, hi + 1, hi + period - 1, hi + period, hi + 2 * period + 1,
        cycles / 3, cycles / 2, cycles - 1}) {
    SCOPED_TRACE("budget " + std::to_string(budget));
    const PipelineRun skipping(unit, config, true, false, budget);
    const PipelineRun stepping(unit, config, true, /*hooked=*/true, budget);
    EXPECT_TRUE(skipping.trapped);
    EXPECT_EQ(skipping.pipe.stats().cycles, budget);
    expect_runs_equal(skipping, stepping);
  }
}

std::vector<BudgetCase> budget_cases() {
  std::vector<BudgetCase> cases;
  for (const char* kernel : {"matmul", "sobel", "conv2d"}) {
    for (const codegen::MachineKind machine :
         {codegen::MachineKind::kZolcLite, codegen::MachineKind::kZolcFull}) {
      cases.push_back(BudgetCase{kernel, machine});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    LoopKernels, SkipBudget, ::testing::ValuesIn(budget_cases()),
    [](const ::testing::TestParamInfo<BudgetCase>& info) {
      return info.param.kernel + "_" +
             std::string(codegen::machine_name(info.param.machine));
    });

TEST(TraceCoSim, WrongPathInstructionsNeverRetire) {
  // A ZOLC program whose body branches constantly (the rollback stress
  // kernel): every retired pc must lie inside the program image, and no
  // instruction after a taken exit's shadow may appear.
  flow::CompileSpec spec;
  spec.kernel = "me_tss";
  spec.machine = codegen::MachineKind::kZolcFull;
  const auto unit = flow::CompiledUnit::compile(spec);
  ASSERT_TRUE(unit.ok()) << unit.error().to_string();
  flow::Workload wl = flow::Workload::prepare(unit.value());
  Pipeline pipe(wl.memory());
  const auto trace = run_traced(pipe, unit.value(), true);
  const std::uint32_t lo = unit.value().program().base;
  const std::uint32_t hi =
      lo + static_cast<std::uint32_t>(unit.value().program().size_words()) * 4;
  for (const Retired& r : trace) {
    ASSERT_GE(r.pc, lo);
    ASSERT_LT(r.pc, hi);
    ASSERT_NE(r.op, isa::Opcode::kInvalid);
  }
}

}  // namespace
}  // namespace zolcsim::cpu
