// End-to-end benchmark validation: every kernel x every machine
// configuration must lower, run to completion, and produce outputs matching
// the golden reference. Also checks the performance ordering the paper
// reports and size scaling.
#include <gtest/gtest.h>

#include <limits>

#include "sim_test_util.hpp"

namespace zolcsim::kernels {
namespace {

using codegen::MachineKind;

using test::compile_and_run;

TEST(Lcg, RangeStaysInBoundsAndSurvivesFullDomainSpans) {
  Lcg lcg(0xC0FFEE01);
  for (int i = 0; i < 1000; ++i) {
    const std::int32_t v = lcg.range(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
  // Regression: a span covering the whole int32 domain used to compute
  // `hi - lo + 1 == 0` and take `next() % 0`. Any value is in range; the
  // call just must be well-defined and deterministic.
  Lcg a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    const std::int32_t full = a.range(std::numeric_limits<std::int32_t>::min(),
                                      std::numeric_limits<std::int32_t>::max());
    EXPECT_EQ(full, b.range(std::numeric_limits<std::int32_t>::min(),
                            std::numeric_limits<std::int32_t>::max()));
  }
  // Large-but-not-full spans whose width exceeds INT32_MAX.
  Lcg c(7);
  for (int i = 0; i < 1000; ++i) {
    const std::int32_t v = c.range(std::numeric_limits<std::int32_t>::min() + 1,
                                   std::numeric_limits<std::int32_t>::max());
    EXPECT_GE(v, std::numeric_limits<std::int32_t>::min() + 1);
  }
}

TEST(KernelRegistry, HasTwelveDistinctKernels) {
  const auto& reg = kernel_registry();
  EXPECT_EQ(reg.size(), 12u);
  for (const auto& k : reg) {
    EXPECT_EQ(find_kernel(k->name()), k.get());
    EXPECT_FALSE(k->description().empty());
  }
  EXPECT_EQ(find_kernel("nonexistent"), nullptr);
}

struct MatrixCase {
  const Kernel* kernel;
  MachineKind machine;
};

class KernelMatrix : public ::testing::TestWithParam<MatrixCase> {};

TEST_P(KernelMatrix, LowersRunsAndVerifies) {
  const auto& [kernel, machine] = GetParam();
  const auto result = compile_and_run(kernel->name(), machine);
  ASSERT_TRUE(result.ok()) << result.error().to_string();
  EXPECT_GT(result.value().stats.cycles, 0u);
  EXPECT_GT(result.value().stats.instructions, 0u);
  if (machine == MachineKind::kZolcLite || machine == MachineKind::kZolcFull ||
      machine == MachineKind::kUZolc) {
    EXPECT_GT(result.value().hw_loops, 0u)
        << "every kernel should get at least one hardware loop";
    EXPECT_GT(result.value().stats.zolc_fetch_events, 0u);
  }
}

std::vector<MatrixCase> all_cases() {
  std::vector<MatrixCase> cases;
  for (const auto& kernel : kernel_registry()) {
    for (const MachineKind machine : codegen::kAllMachines) {
      cases.push_back(MatrixCase{kernel.get(), machine});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    AllKernelsAllMachines, KernelMatrix, ::testing::ValuesIn(all_cases()),
    [](const ::testing::TestParamInfo<MatrixCase>& info) {
      return std::string(info.param.kernel->name()) + "_" +
             std::string(codegen::machine_name(info.param.machine));
    });

class KernelOrdering : public ::testing::TestWithParam<const Kernel*> {};

TEST_P(KernelOrdering, MachinesOrderAsThePaperReports) {
  const Kernel& kernel = *GetParam();
  const auto base = compile_and_run(kernel.name(), MachineKind::kXrDefault);
  ASSERT_TRUE(base.ok()) << base.error().to_string();
  const std::uint64_t baseline = base.value().stats.cycles;

  // XRhrdwil never loses (it gains only where an index is a pure counter,
  // since the base ISA already has fused compare-and-branch).
  const auto hrdwil = compile_and_run(kernel.name(), MachineKind::kXrHrdwil);
  ASSERT_TRUE(hrdwil.ok());
  EXPECT_LE(hrdwil.value().stats.cycles, baseline);

  // uZOLC always accelerates the hottest innermost loop.
  const auto micro = compile_and_run(kernel.name(), MachineKind::kUZolc);
  ASSERT_TRUE(micro.ok());
  EXPECT_LT(micro.value().stats.cycles, baseline);

  // ZOLClite may degrade to near-baseline on break-dominated kernels (the
  // multi-exit loop and its descendants fall back to software); allow the
  // one-time init overhead but nothing more.
  const auto lite = compile_and_run(kernel.name(), MachineKind::kZolcLite);
  ASSERT_TRUE(lite.ok());
  EXPECT_LE(lite.value().stats.cycles,
            baseline + lite.value().init_instructions + 8);

  // ZOLCfull handles everything in hardware: strictly better than the
  // baseline, and never slower than lite.
  const auto full = compile_and_run(kernel.name(), MachineKind::kZolcFull);
  ASSERT_TRUE(full.ok());
  EXPECT_LT(full.value().stats.cycles, baseline);
  EXPECT_LE(full.value().stats.cycles, lite.value().stats.cycles);
  // Full manages a superset of uZOLC's loops; allow only the init-length
  // difference between the two configurations.
  EXPECT_LE(full.value().stats.cycles,
            micro.value().stats.cycles + full.value().init_instructions);
}

std::vector<const Kernel*> all_kernels() {
  std::vector<const Kernel*> out;
  for (const auto& k : kernel_registry()) out.push_back(k.get());
  return out;
}

INSTANTIATE_TEST_SUITE_P(AllKernels, KernelOrdering,
                         ::testing::ValuesIn(all_kernels()),
                         [](const ::testing::TestParamInfo<const Kernel*>& i) {
                           return std::string(i.param->name());
                         });

TEST(KernelScaling, LargerProblemsStillVerify) {
  KernelEnv env;
  env.scale = 2;
  for (const char* name : {"dotprod", "fir", "matmul", "fft", "crc32"}) {
    const Kernel* kernel = find_kernel(name);
    ASSERT_NE(kernel, nullptr);
    for (const MachineKind machine :
         {MachineKind::kXrDefault, MachineKind::kZolcLite}) {
      const auto run = compile_and_run(kernel->name(), machine, {}, {}, env);
      ASSERT_TRUE(run.ok()) << name << ": " << run.error().to_string();
    }
  }
}

TEST(KernelSeeds, DifferentSeedsStillVerify) {
  for (const std::uint32_t seed : {1u, 42u, 0xDEADBEEFu}) {
    KernelEnv env;
    env.seed = seed;
    for (const char* name : {"vecmax", "me_tss", "iir_biquad"}) {
      const Kernel* kernel = find_kernel(name);
      ASSERT_NE(kernel, nullptr);
      const auto run =
          compile_and_run(kernel->name(), MachineKind::kZolcFull, {}, {}, env);
      ASSERT_TRUE(run.ok()) << name << " seed=" << seed << ": "
                            << run.error().to_string();
    }
  }
}

TEST(KernelZolc, MeTssExercisesExitRecordsOnFull) {
  const Kernel* kernel = find_kernel("me_tss");
  ASSERT_NE(kernel, nullptr);
  const auto full = compile_and_run(kernel->name(), MachineKind::kZolcFull);
  ASSERT_TRUE(full.ok()) << full.error().to_string();
  EXPECT_GT(full.value().zolc_stats.exit_matches, 0u)
      << "the planted perfect match should take the candidate-loop exit";

  const auto lite = compile_and_run(kernel->name(), MachineKind::kZolcLite);
  ASSERT_TRUE(lite.ok()) << lite.error().to_string();
  EXPECT_EQ(lite.value().zolc_stats.exit_matches, 0u);
  // Lite demotes the multi-exit candidate loop, so full is at least as fast.
  EXPECT_LE(full.value().stats.cycles, lite.value().stats.cycles);
}

TEST(KernelZolc, PerfectNestsCascade) {
  for (const char* name : {"matmul", "conv2d", "me_fsbm"}) {
    const Kernel* kernel = find_kernel(name);
    const auto run = compile_and_run(kernel->name(), MachineKind::kZolcLite);
    ASSERT_TRUE(run.ok()) << run.error().to_string();
    EXPECT_GT(run.value().zolc_stats.cascade_chains, 0u) << name;
  }
}

TEST(KernelZolc, InitOverheadIsSmallFractionOfCycles) {
  for (const auto& kernel : kernel_registry()) {
    const auto run = compile_and_run(kernel->name(), MachineKind::kZolcLite);
    ASSERT_TRUE(run.ok()) << run.error().to_string();
    const double frac = static_cast<double>(run.value().init_instructions) /
                        static_cast<double>(run.value().stats.cycles);
    EXPECT_LT(frac, 0.10) << kernel->name()
                          << ": init should be a small one-time cost";
  }
}

}  // namespace
}  // namespace zolcsim::kernels
