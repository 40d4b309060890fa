// Experiment behaviour through the staged toolchain: determinism, error
// propagation, config plumbing, and the reduction metric.
#include <gtest/gtest.h>

#include "harness/experiment.hpp"
#include "sim_test_util.hpp"

namespace zolcsim::harness {
namespace {

using codegen::MachineKind;
using test::compile_and_run;

/// A RunPlan that differs from the default only in its pipeline config.
flow::RunPlan with_config(const cpu::PipelineConfig& config) {
  flow::RunPlan plan;
  plan.config = config;
  return plan;
}

TEST(Harness, PercentReduction) {
  EXPECT_DOUBLE_EQ(percent_reduction(100, 100), 0.0);
  EXPECT_DOUBLE_EQ(percent_reduction(100, 50), 50.0);
  EXPECT_DOUBLE_EQ(percent_reduction(200, 150), 25.0);
  EXPECT_DOUBLE_EQ(percent_reduction(0, 10), 0.0);
  EXPECT_LT(percent_reduction(100, 110), 0.0);  // regression shows negative
}

TEST(Harness, RunsAreDeterministic) {
  const auto a = compile_and_run("fir", MachineKind::kZolcLite);
  const auto b = compile_and_run("fir", MachineKind::kZolcLite);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a.value().stats.cycles, b.value().stats.cycles);
  EXPECT_EQ(a.value().stats.instructions, b.value().stats.instructions);
  EXPECT_EQ(a.value().zolc_stats.continue_events,
            b.value().zolc_stats.continue_events);
}

TEST(Harness, ResultCarriesMachineMetadata) {
  const auto result = compile_and_run("matmul", MachineKind::kZolcFull);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().kernel, "matmul");
  EXPECT_EQ(result.value().machine, MachineKind::kZolcFull);
  EXPECT_EQ(result.value().hw_loops, 3u);
  EXPECT_GT(result.value().code_words, 0u);
  EXPECT_GT(result.value().init_instructions, 0u);
}

TEST(Harness, NonZolcMachinesReportNoZolcActivity) {
  const auto result = compile_and_run("dotprod", MachineKind::kXrDefault);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().stats.zolc_fetch_events, 0u);
  EXPECT_EQ(result.value().init_instructions, 0u);
  EXPECT_EQ(result.value().zolc_stats.table_writes, 0u);
}

TEST(Harness, PipelineConfigIsHonored) {
  // Use XRhrdwil: dbne's counter is written a whole loop body earlier, so
  // decode-stage resolution saves a cycle per back-edge with no interlock.
  // (On XRdefault the back-edge depends on the addi directly before it, and
  // the interlock stall cancels the early-resolution gain.)
  cpu::PipelineConfig early;
  early.branch_resolve = cpu::BranchResolveStage::kDecode;
  const auto ex = compile_and_run("crc32", MachineKind::kXrHrdwil);
  const auto id =
      compile_and_run("crc32", MachineKind::kXrHrdwil, with_config(early));
  ASSERT_TRUE(ex.ok() && id.ok());
  EXPECT_LT(id.value().stats.cycles, ex.value().stats.cycles);

  const auto def_ex = compile_and_run("crc32", MachineKind::kXrDefault);
  const auto def_id =
      compile_and_run("crc32", MachineKind::kXrDefault, with_config(early));
  ASSERT_TRUE(def_ex.ok() && def_id.ok());
  // On XRdefault the back-edge depends on the addi directly before it, so
  // decode resolution pays an interlock stall every iteration (taken or
  // not) -- the two configurations must differ, but either can win.
  EXPECT_NE(def_id.value().stats.cycles, def_ex.value().stats.cycles);
  EXPECT_GT(def_id.value().stats.interlock_stalls, 0u);
}

TEST(Harness, CycleLimitSurfacesAsError) {
  flow::RunPlan plan;
  plan.max_cycles = 100;
  const auto result =
      compile_and_run("me_fsbm", MachineKind::kXrDefault, plan);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, ErrorCode::kSimulation);
  EXPECT_NE(result.error().to_string().find("simulation failed"),
            std::string::npos);
}

}  // namespace
}  // namespace zolcsim::harness
