// Quickstart: the staged zolcsim toolchain in one file.
//
//   1. Compile stage -- flow::CompiledUnit::compile() turns a (kernel,
//      machine, geometry, env) point into an immutable artifact: the
//      lowered program and its decoded image.
//   2. Runtime stage -- flow::run() executes that unit under any number of
//      pipeline configurations without recompiling.
//   3. Comparison -- a second unit for the unmodified core gives the
//      paper's cycle-reduction metric.
//
// The same flow drives the `zolcsim` CLI:
//   zolcsim compile fir --machine=ZOLClite --disasm
//   zolcsim run fir --machine=ZOLClite
//
// Build & run:  cmake --build build && ./build/examples/quickstart
#include <cstdio>

#include "flow/compiled_unit.hpp"
#include "flow/run.hpp"
#include "harness/experiment.hpp"

int main() {
  using namespace zolcsim;

  // --- 1. Compile once per machine. ---------------------------------------
  flow::CompileSpec spec;
  spec.kernel = "fir";  // 16-tap FIR filter from the paper suite
  spec.machine = codegen::MachineKind::kZolcLite;
  const auto zolc_unit = flow::CompiledUnit::compile(spec);

  spec.machine = codegen::MachineKind::kXrDefault;
  const auto base_unit = flow::CompiledUnit::compile(spec);

  if (!zolc_unit.ok() || !base_unit.ok()) {
    const Error& error =
        zolc_unit.ok() ? base_unit.error() : zolc_unit.error();
    std::fprintf(stderr, "compile failed: %s\n", error.to_string().c_str());
    return 1;
  }
  std::printf("baseline image: %zu words, ZOLC image: %zu words "
              "(%u of them one-time init, %u hardware loops)\n",
              base_unit.value().program().size_words(),
              zolc_unit.value().program().size_words(),
              zolc_unit.value().program().init_instructions,
              zolc_unit.value().program().hw_loop_count);

  // --- 2. Run the compiled units (recompile-free per config). -------------
  const auto run_once = [](const flow::CompiledUnit& unit,
                           const flow::RunPlan& plan) -> std::uint64_t {
    const auto result = flow::run(unit, plan);
    if (!result.ok()) {
      std::fprintf(stderr, "run failed: %s\n",
                   result.error().to_string().c_str());
      std::exit(1);
    }
    std::printf("  %-10s %6llu cycles, %6llu instructions (verified)\n",
                std::string(codegen::machine_name(unit.machine())).c_str(),
                static_cast<unsigned long long>(result.value().stats.cycles),
                static_cast<unsigned long long>(
                    result.value().stats.instructions));
    return result.value().stats.cycles;
  };

  std::printf("running on the 5-stage cycle-accurate pipeline:\n");
  const std::uint64_t base_cycles = run_once(base_unit.value(), {});
  const std::uint64_t zolc_cycles = run_once(zolc_unit.value(), {});

  // The same ZOLC unit again under a different pipeline configuration --
  // this is the step the compile-once split makes free.
  flow::RunPlan early;
  early.config.branch_resolve = cpu::BranchResolveStage::kDecode;
  std::printf("same compiled unit, ID-resolve pipeline:\n");
  run_once(zolc_unit.value(), early);

  // --- 3. The paper's metric. ---------------------------------------------
  std::printf("\nZOLC removes the loop's index update, compare-branch and "
              "flush:\n  %.1f%% fewer cycles\n",
              harness::percent_reduction(base_cycles, zolc_cycles));
  return 0;
}
