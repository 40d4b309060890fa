// Sweep-engine behaviour: thread-count invariance, parity with direct
// staged runs, dimension resolution, cell coordinates, reductions, and
// emitters.
#include <gtest/gtest.h>

#include "flow/cache.hpp"
#include "harness/experiment.hpp"
#include "harness/sweep.hpp"
#include "sim_test_util.hpp"

namespace zolcsim::harness {
namespace {

using codegen::MachineKind;
using cpu::BranchResolveStage;
using cpu::PipelineConfig;
using cpu::SpeculationPolicy;

SweepSpec small_spec() {
  SweepSpec spec;
  spec.kernels = {"dotprod", "fir", "matmul"};
  spec.machines = {MachineKind::kXrDefault, MachineKind::kXrHrdwil,
                   MachineKind::kZolcLite};
  return spec;
}

TEST(Sweep, ReportIsIdenticalAcrossThreadCounts) {
  SweepSpec spec = small_spec();
  spec.threads = 1;
  const auto serial = run_sweep(spec);
  ASSERT_TRUE(serial.ok()) << serial.error().to_string();

  for (const unsigned threads : {2u, 4u, 8u}) {
    spec.threads = threads;
    const auto parallel = run_sweep(spec);
    ASSERT_TRUE(parallel.ok()) << parallel.error().to_string();
    ASSERT_EQ(serial.value().cells.size(), parallel.value().cells.size());
    for (std::size_t i = 0; i < serial.value().cells.size(); ++i) {
      const auto& a = serial.value().cells[i].result;
      const auto& b = parallel.value().cells[i].result;
      EXPECT_EQ(a.kernel, b.kernel);
      EXPECT_EQ(a.stats.cycles, b.stats.cycles);
      EXPECT_EQ(a.stats.instructions, b.stats.instructions);
      EXPECT_EQ(a.zolc_stats.continue_events, b.zolc_stats.continue_events);
    }
    // Byte-identical rendered artifacts, not just equal stats.
    EXPECT_EQ(serial.value().to_csv(), parallel.value().to_csv());
    EXPECT_EQ(serial.value().to_json(), parallel.value().to_json());
  }
}

TEST(Sweep, EngineMatchesDirectRuns) {
  // The fig2 grid through the engine must reproduce the values of direct
  // compile + run calls.
  SweepSpec spec = small_spec();
  spec.threads = 4;
  const auto report = run_sweep(spec);
  ASSERT_TRUE(report.ok()) << report.error().to_string();

  for (const SweepCell& cell : report.value().cells) {
    const auto direct =
        test::compile_and_run(report.value().kernels[cell.coord.kernel],
                              report.value().machines[cell.coord.machine]);
    ASSERT_TRUE(direct.ok()) << direct.error().to_string();
    EXPECT_EQ(direct.value().stats.cycles, cell.result.stats.cycles);
    EXPECT_EQ(direct.value().stats.instructions,
              cell.result.stats.instructions);
    EXPECT_EQ(direct.value().init_instructions, cell.result.init_instructions);
    EXPECT_EQ(direct.value().hw_loops, cell.result.hw_loops);
  }
}

TEST(Sweep, CellsCarryTheirCoordinatesInIndexOrder) {
  SweepSpec spec = small_spec();
  spec.modes = {flow::ExecMode{flow::SimEngine::kIss, false},
                flow::ExecMode{flow::SimEngine::kIss, true}};
  spec.tenants = {1, 2};
  const auto report = run_sweep(spec);
  ASSERT_TRUE(report.ok()) << report.error().to_string();
  const SweepReport& r = report.value();
  ASSERT_EQ(r.cells.size(), 3u * 3u * 2u * 2u);
  for (std::size_t i = 0; i < r.cells.size(); ++i) {
    const CellCoord& coord = r.cells[i].coord;
    EXPECT_EQ(coord, r.coord_of(i));
    EXPECT_EQ(r.index_of(coord), i);
    EXPECT_EQ(&r.at(coord), &r.cells[i].result);
    EXPECT_EQ(r.cells[i].result.kernel, r.kernels[coord.kernel]);
    EXPECT_EQ(r.cells[i].result.machine, r.machines[coord.machine]);
    EXPECT_EQ(r.cells[i].result.mode, r.modes[coord.mode]);
    EXPECT_EQ(r.cells[i].result.tenants, r.tenants[coord.tenant]);
  }
  // Kernel-major: the tenant axis varies fastest.
  EXPECT_EQ(r.cells[1].coord, (CellCoord{.tenant = 1}));
  EXPECT_EQ(r.cells[2].coord, (CellCoord{.mode = 1}));
}

TEST(Sweep, EmptyDimensionsResolveToDefaults) {
  SweepSpec spec;
  spec.kernels = {"dotprod"};  // keep runtime small; machines/configs default
  const auto report = run_sweep(spec);
  ASSERT_TRUE(report.ok()) << report.error().to_string();
  EXPECT_EQ(report.value().machines.size(), std::size(codegen::kAllMachines));
  EXPECT_EQ(report.value().configs.size(), 1u);
  EXPECT_EQ(report.value().cells.size(), std::size(codegen::kAllMachines));
}

TEST(Sweep, UnknownKernelFailsTheSweep) {
  SweepSpec spec;
  spec.kernels = {"no_such_kernel"};
  const auto report = run_sweep(spec);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.error().code, ErrorCode::kUnknownKernel);
  EXPECT_NE(report.error().message.find("no_such_kernel"), std::string::npos);
}

TEST(Sweep, CompilesEachUnitExactlyOnceAcrossTheConfigAxis) {
  // The tentpole guarantee: the pipeline-config axis reuses compiled units.
  // 2 kernels x 2 machines x 3 configs = 12 cells but only 4 distinct
  // (kernel, machine, geometry) units; the other 8 cells must be cache hits.
  SweepSpec spec;
  spec.kernels = {"dotprod", "fir"};
  spec.machines = {MachineKind::kXrDefault, MachineKind::kZolcLite};
  spec.configs = {
      PipelineConfig{BranchResolveStage::kExecute,
                     SpeculationPolicy::kRollback, true},
      PipelineConfig{BranchResolveStage::kDecode, SpeculationPolicy::kGate,
                     true},
      PipelineConfig{BranchResolveStage::kExecute,
                     SpeculationPolicy::kRollback, false}};
  for (const unsigned threads : {1u, 4u}) {
    spec.threads = threads;
    const auto report = run_sweep(spec);
    ASSERT_TRUE(report.ok()) << report.error().to_string();
    EXPECT_EQ(report.value().cells.size(), 12u);
    EXPECT_EQ(report.value().compile_cache_misses, 4u);
    EXPECT_EQ(report.value().compile_cache_hits, 8u);
  }
}

TEST(Sweep, CallerSuppliedCacheIsSharedAndCountersAreDeltas) {
  // Two sweeps over the same grid against one cache: the second compiles
  // nothing, and its report counts only its own delta -- not the cache's
  // lifetime totals.
  SweepSpec spec;
  spec.kernels = {"dotprod", "fir"};
  spec.machines = {MachineKind::kXrDefault, MachineKind::kZolcLite};
  flow::CompileCache cache;

  const auto cold = run_sweep(spec, cache);
  ASSERT_TRUE(cold.ok()) << cold.error().to_string();
  EXPECT_EQ(cold.value().compile_cache_misses, 4u);
  EXPECT_EQ(cold.value().compile_cache_hits, 0u);

  const auto warm = run_sweep(spec, cache);
  ASSERT_TRUE(warm.ok()) << warm.error().to_string();
  EXPECT_EQ(warm.value().compile_cache_misses, 0u);
  EXPECT_EQ(warm.value().compile_cache_hits, 4u);
  EXPECT_EQ(warm.value().to_csv(), cold.value().to_csv());

  EXPECT_EQ(cache.stats().misses, 4u);
  EXPECT_EQ(cache.stats().hits, 4u);
}

TEST(Sweep, ReductionIsRelativeToTheBaselineMachine) {
  SweepSpec spec = small_spec();
  const auto report = run_sweep(spec);
  ASSERT_TRUE(report.ok()) << report.error().to_string();
  const SweepReport& r = report.value();

  double lite_sum = 0.0;
  for (std::size_t k = 0; k < r.kernels.size(); ++k) {
    // Baseline machine reduces 0% against itself.
    EXPECT_DOUBLE_EQ(r.reduction({.kernel = k}), 0.0);
    const CellCoord lite{.kernel = k, .machine = 2};
    EXPECT_DOUBLE_EQ(r.reduction(lite),
                     percent_reduction(r.at({.kernel = k}).stats.cycles,
                                       r.at(lite).stats.cycles));
    lite_sum += r.reduction(lite);
  }
  EXPECT_GT(lite_sum, 0.0);  // ZOLClite beats the baseline
}

TEST(Sweep, ConfigGridIsSwept) {
  SweepSpec spec;
  spec.kernels = {"fir"};
  spec.machines = {MachineKind::kXrDefault, MachineKind::kZolcLite};
  spec.configs = {
      PipelineConfig{BranchResolveStage::kExecute, SpeculationPolicy::kRollback,
                     true},
      PipelineConfig{BranchResolveStage::kDecode, SpeculationPolicy::kGate,
                     true}};
  const auto report = run_sweep(spec);
  ASSERT_TRUE(report.ok()) << report.error().to_string();
  EXPECT_EQ(report.value().cells.size(), 4u);
  // Early branch resolution squashes strictly fewer wrong-path slots than
  // EX resolution on the software-loop baseline (1 vs 2 per taken branch).
  EXPECT_LT(report.value().at({.config = 1}).stats.control_flush_slots,
            report.value().at({}).stats.control_flush_slots);
}

TEST(Sweep, FindLooksUpByLabels) {
  const auto report = run_sweep(small_spec());
  ASSERT_TRUE(report.ok());
  const flow::ExperimentResult* cell = report.value().find({"fir", "ZOLClite"});
  ASSERT_NE(cell, nullptr);
  EXPECT_EQ(cell->kernel, "fir");
  EXPECT_EQ(cell->machine, MachineKind::kZolcLite);
  EXPECT_EQ(report.value().find({"fir", "ZOLCfull"}), nullptr);
  EXPECT_EQ(report.value().find({"nope", "ZOLClite"}), nullptr);
  // Labels on the remaining axes select points too.
  EXPECT_EQ(report.value().find(
                {"fir", "ZOLClite", "EX-resolve/rollback", "32t-8l-4x-4e",
                 "pipeline", "1"}),
            cell);
  EXPECT_EQ(report.value().find({"fir", "ZOLClite", "", "", "iss"}), nullptr);
}

}  // namespace
}  // namespace zolcsim::harness
