// Preempt-anywhere differential harness (DESIGN.md section 9): for every
// registered kernel on every machine, execution is preempted at systematic
// and fuzzed instruction points, the accelerator context saved, the
// controller clobbered, and the context restored before resuming.
// Preemption must be architecturally invisible: registers, memory, IssStats
// and ZolcStats are pinned bit-identical to uninterrupted runs, and the
// modeled switch cost is reported alongside -- never folded into -- the
// cycle counts. A preempted run is the tenant scheduler's one-tenant case,
// so the tenant tests below drive the same loop.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "codegen/program.hpp"
#include "cpu/iss.hpp"
#include "flow/compiled_unit.hpp"
#include "flow/run.hpp"
#include "flow/workload.hpp"
#include "harness/sweep.hpp"
#include "kernels/kernels.hpp"
#include "sim_test_util.hpp"
#include "zolc/controller.hpp"

namespace zolcsim::flow {
namespace {

using codegen::MachineKind;

constexpr flow::ExecMode kIss{flow::SimEngine::kIss, false};
constexpr flow::ExecMode kIssFast{flow::SimEngine::kIss, true};

/// Deterministic xorshift32 for fuzzed preemption points (same idiom as the
/// table/context tests; fixed seeds keep the suite reproducible).
class Rng {
 public:
  explicit Rng(std::uint32_t seed) : state_(seed) {}
  std::uint32_t next() {
    state_ ^= state_ << 13;
    state_ ^= state_ >> 17;
    state_ ^= state_ << 5;
    return state_;
  }

 private:
  std::uint32_t state_;
};

CompileSpec spec_for(std::string kernel, MachineKind machine) {
  CompileSpec spec;
  spec.kernel = std::move(kernel);
  spec.machine = machine;
  return spec;
}

RunPlan iss_plan(std::uint64_t preempt_every = 0) {
  RunPlan plan;
  plan.mode = kIss;
  plan.preempt_every = preempt_every;
  return plan;
}

/// Asserts every deterministic statistic of `got` matches `base`. The
/// switch-cost counters are deliberately excluded: they are the only fields
/// preemption is allowed to change.
void expect_arch_identical(const flow::ExperimentResult& base,
                           const flow::ExperimentResult& got,
                           const std::string& what) {
  EXPECT_EQ(base.stats.cycles, got.stats.cycles) << what;
  EXPECT_EQ(base.stats.instructions, got.stats.instructions) << what;
  EXPECT_EQ(base.stats.taken_control, got.stats.taken_control) << what;
  EXPECT_EQ(base.stats.zolc_fetch_events, got.stats.zolc_fetch_events) << what;
  EXPECT_EQ(base.stats.zolc_resolution_events,
            got.stats.zolc_resolution_events)
      << what;
  EXPECT_TRUE(base.zolc_stats == got.zolc_stats) << what;
}

// ---------------- systematic points: every kernel x machine ----------------

TEST(PreemptDiff, EveryKernelEveryMachineBitIdentical) {
  const std::uint64_t quanta[] = {97, 1009};
  for (const auto& kernel : kernels::kernel_registry()) {
    for (const MachineKind machine : codegen::kAllMachines) {
      const std::string what = std::string(kernel->name()) + " on " +
                               std::string(codegen::machine_name(machine));
      const auto unit =
          CompiledUnit::compile(spec_for(std::string(kernel->name()), machine));
      ASSERT_TRUE(unit.ok()) << what << ": " << unit.error().to_string();

      const auto base = run(unit.value(), iss_plan());
      ASSERT_TRUE(base.ok()) << what << ": " << base.error().to_string();
      EXPECT_EQ(base.value().context_switches, 0u) << what;
      EXPECT_EQ(base.value().context_switch_cycles, 0u) << what;

      const bool has_controller =
          codegen::machine_zolc_variant(machine).has_value();
      for (const std::uint64_t quantum : quanta) {
        const auto got = run(unit.value(), iss_plan(quantum));
        ASSERT_TRUE(got.ok()) << what << ": " << got.error().to_string();
        expect_arch_identical(base.value(), got.value(),
                              what + " @q=" + std::to_string(quantum));
        // Switch cost is reported alongside the (identical) cycles, and
        // only when a controller exists to be switched.
        if (has_controller && base.value().stats.instructions > quantum) {
          EXPECT_GT(got.value().context_switches, 0u) << what;
          EXPECT_GT(got.value().context_switch_cycles, 0u) << what;
        }
        if (!has_controller) {
          EXPECT_EQ(got.value().context_switches, 0u) << what;
        }
      }
    }
  }
}

TEST(PreemptDiff, QuantumOfOnePreemptsBetweenEveryInstruction) {
  // The most hostile schedule: a full save/clobber/restore between every
  // pair of executed instructions, including mid-cascade and mid-init.
  for (const MachineKind machine :
       {MachineKind::kUZolc, MachineKind::kZolcLite, MachineKind::kZolcFull}) {
    const auto unit = CompiledUnit::compile(spec_for("dotprod", machine));
    ASSERT_TRUE(unit.ok());
    const auto base = run(unit.value(), iss_plan());
    const auto got = run(unit.value(), iss_plan(1));
    ASSERT_TRUE(base.ok() && got.ok());
    const std::string what = std::string("dotprod q=1 on ") +
                             std::string(codegen::machine_name(machine));
    expect_arch_identical(base.value(), got.value(), what);
    EXPECT_EQ(got.value().context_switches,
              base.value().stats.instructions - 1)
        << what;
  }
}

// ---------------- fuzzed points: registers and memory ----------------

struct ManualRun {
  cpu::RegFile regs;
  cpu::IssStats stats;
  zolc::ZolcStats zolc_stats;
  std::uint64_t switches = 0;
};

/// Runs `unit` on a hand-built ISS. With `fuzz`, execution is sliced at
/// random instruction counts in [1, 512] and the controller context is
/// clobbered/restored at every boundary.
ManualRun run_manual(const CompiledUnit& unit, Workload& workload,
                     Rng* fuzz) {
  std::unique_ptr<zolc::ZolcController> controller;
  if (const auto variant = codegen::machine_zolc_variant(unit.machine())) {
    controller =
        std::make_unique<zolc::ZolcController>(*variant, unit.geometry());
  }
  cpu::Iss iss(workload.memory());
  iss.set_accelerator(controller.get());
  iss.set_code_image(unit.decoded());
  iss.set_pc(unit.program().base);

  ManualRun out;
  if (fuzz == nullptr) {
    iss.run(200'000'000);
  } else {
    while (!iss.halted()) {
      iss.run_slice(1 + fuzz->next() % 512);
      if (iss.halted()) break;
      if (controller != nullptr) {
        test::preempt_cycle(*controller);
        ++out.switches;
      }
    }
  }
  out.regs = iss.regs();
  out.stats = iss.stats();
  if (controller != nullptr) out.zolc_stats = controller->zolc_stats();
  return out;
}

TEST(PreemptDiff, FuzzedPreemptionPointsLeaveRegsAndMemoryBitIdentical) {
  const std::pair<const char*, MachineKind> targets[] = {
      {"dotprod", MachineKind::kUZolc},
      {"dotprod", MachineKind::kZolcFull},
      {"matmul", MachineKind::kZolcLite},
      {"matmul", MachineKind::kZolcFull}};
  for (const auto& [name, machine] : targets) {
    const auto unit = CompiledUnit::compile(spec_for(name, machine));
    ASSERT_TRUE(unit.ok());
    Workload golden_wl = Workload::prepare(unit.value());
    const ManualRun golden = run_manual(unit.value(), golden_wl, nullptr);

    for (const std::uint32_t seed : {0x9E3779B9u, 0x5EEDF00Du}) {
      const std::string what = std::string(name) + " on " +
                               std::string(codegen::machine_name(machine)) +
                               " seed=" + std::to_string(seed);
      Rng rng(seed);
      Workload fuzzed_wl = Workload::prepare(unit.value());
      const ManualRun fuzzed = run_manual(unit.value(), fuzzed_wl, &rng);

      EXPECT_GT(fuzzed.switches, 0u) << what;
      EXPECT_TRUE(golden.regs == fuzzed.regs) << what;
      EXPECT_TRUE(golden_wl.memory() == fuzzed_wl.memory()) << what;
      EXPECT_EQ(golden.stats.instructions, fuzzed.stats.instructions) << what;
      EXPECT_EQ(golden.stats.taken_control, fuzzed.stats.taken_control)
          << what;
      EXPECT_EQ(golden.stats.zolc_fetch_events, fuzzed.stats.zolc_fetch_events)
          << what;
      EXPECT_EQ(golden.stats.zolc_resolution_events,
                fuzzed.stats.zolc_resolution_events)
          << what;
      EXPECT_TRUE(golden.zolc_stats == fuzzed.zolc_stats) << what;
      EXPECT_TRUE(fuzzed_wl.verify().ok()) << what;
    }
  }
}

// ---------------- fast path across restores ----------------

TEST(PreemptDiff, FastPathRevalidatesCleanlyAcrossRestores) {
  // Preemption inside summarized loops forces the fast path to bail and
  // re-validate after every restore; the result must still match both the
  // uninterrupted fast run and the plain ISS.
  const auto unit = CompiledUnit::compile(spec_for("matmul",
                                                   MachineKind::kZolcFull));
  ASSERT_TRUE(unit.ok());
  RunPlan fast = iss_plan();
  fast.mode = kIssFast;
  const auto base_fast = run(unit.value(), fast);
  const auto base_iss = run(unit.value(), iss_plan());
  RunPlan preempted = iss_plan(97);
  preempted.mode = kIssFast;
  const auto got = run(unit.value(), preempted);
  ASSERT_TRUE(base_fast.ok() && base_iss.ok() && got.ok());

  expect_arch_identical(base_fast.value(), got.value(), "fast vs preempted");
  expect_arch_identical(base_iss.value(), got.value(), "iss vs preempted");
  EXPECT_GT(got.value().context_switches, 0u);
  // The tier keeps engaging after restores instead of shutting down.
  EXPECT_GT(got.value().fastpath.attempts, 0u);
  EXPECT_GT(got.value().fastpath.engagements, 0u);
}

// ---------------- tenant scheduling ----------------

TEST(TenantRun, SummedStatsAndSwitchCostNeverFoldedIntoCycles) {
  const auto unit = CompiledUnit::compile(spec_for("matmul",
                                                   MachineKind::kZolcFull));
  ASSERT_TRUE(unit.ok());
  const auto base = run(unit.value(), iss_plan());
  ASSERT_TRUE(base.ok());

  RunPlan plan = iss_plan(500);
  plan.tenants = 3;
  const auto got = run(unit.value(), plan);  // dispatches to run_tenants
  ASSERT_TRUE(got.ok()) << got.error().to_string();
  const flow::ExperimentResult& r = got.value();

  EXPECT_EQ(r.tenants, 3u);
  // Execution cycles are the sum over tenants, with the switch cost held
  // apart -- 3 x the single run exactly, not 3x-plus-overhead.
  EXPECT_EQ(r.stats.cycles, 3 * base.value().stats.cycles);
  EXPECT_EQ(r.stats.instructions, 3 * base.value().stats.instructions);
  EXPECT_EQ(r.zolc_stats.continue_events,
            3 * base.value().zolc_stats.continue_events);
  EXPECT_EQ(r.zolc_stats.done_events, 3 * base.value().zolc_stats.done_events);
  EXPECT_EQ(r.zolc_stats.max_cascade_depth,
            base.value().zolc_stats.max_cascade_depth);
  EXPECT_GT(r.context_switches, 0u);
  EXPECT_GT(r.context_switch_cycles, 0u);
}

TEST(TenantRun, DefaultQuantumAppliesWhenPreemptEveryUnset) {
  const auto unit = CompiledUnit::compile(spec_for("fir",
                                                   MachineKind::kZolcLite));
  ASSERT_TRUE(unit.ok());
  const auto base = run(unit.value(), iss_plan());
  RunPlan plan = iss_plan();
  plan.tenants = 2;
  const auto got = run(unit.value(), plan);
  ASSERT_TRUE(base.ok() && got.ok());
  EXPECT_EQ(got.value().stats.cycles, 2 * base.value().stats.cycles);
  EXPECT_GT(got.value().context_switches, 0u);
}

TEST(TenantRun, PipelineEngineIsRejected) {
  const auto unit = CompiledUnit::compile(spec_for("fir",
                                                   MachineKind::kZolcLite));
  ASSERT_TRUE(unit.ok());
  RunPlan plan;  // pipeline engine
  plan.tenants = 2;
  const auto got = run(unit.value(), plan);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.error().code, ErrorCode::kBadConfig);

  RunPlan preempted;
  preempted.preempt_every = 64;
  const auto rejected = run(unit.value(), preempted);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.error().code, ErrorCode::kBadConfig);
}

TEST(TenantRun, CallerPreparedWorkloadRunsUninterruptedOnly) {
  const auto unit = CompiledUnit::compile(spec_for("fir",
                                                   MachineKind::kZolcLite));
  ASSERT_TRUE(unit.ok());
  for (const bool preempt : {false, true}) {
    RunPlan plan = iss_plan(preempt ? 64 : 0);
    plan.tenants = preempt ? 1 : 2;
    Workload workload = Workload::prepare(unit.value());
    const auto got = run(unit.value(), workload, plan);
    ASSERT_FALSE(got.ok()) << "preempt=" << preempt;
    EXPECT_EQ(got.error().code, ErrorCode::kBadConfig) << "preempt=" << preempt;
  }
}

TEST(TenantRun, FastPathTenantsMatchSingleRunsWithPinnedSwitchCost) {
  // Three iss-fast tenants sliced every 500 instructions: each tenant's
  // replays are cut at slice ends and re-validated after its restore.
  const auto unit = CompiledUnit::compile(spec_for("matmul",
                                                   MachineKind::kZolcFull));
  ASSERT_TRUE(unit.ok());
  RunPlan single = iss_plan();
  single.mode = kIssFast;
  const auto base = run(unit.value(), single);
  RunPlan plan = iss_plan(500);
  plan.mode = kIssFast;
  plan.tenants = 3;
  const auto got = run(unit.value(), plan);
  ASSERT_TRUE(base.ok() && got.ok()) << got.error().to_string();
  const flow::ExperimentResult& r = got.value();
  EXPECT_EQ(r.stats.cycles, 3 * base.value().stats.cycles);
  EXPECT_EQ(r.stats.instructions, 3 * base.value().stats.instructions);
  EXPECT_EQ(r.stats.zolc_fetch_events,
            3 * base.value().stats.zolc_fetch_events);
  EXPECT_EQ(r.zolc_stats.continue_events,
            3 * base.value().zolc_stats.continue_events);
  EXPECT_EQ(r.zolc_stats.done_events, 3 * base.value().zolc_stats.done_events);
  EXPECT_GT(r.fastpath.engagements, 0u);
  EXPECT_EQ(r.context_switches, 20u);
  EXPECT_EQ(r.context_switch_cycles, 500u);
}

TEST(TenantRun, PreemptedRunIsTheOneTenantSchedule) {
  // One slice per 97 instructions: a switch between every two slices, and
  // the first slice's load of the power-on context is charged as well.
  const auto unit = CompiledUnit::compile(spec_for("matmul",
                                                   MachineKind::kZolcFull));
  ASSERT_TRUE(unit.ok());
  const auto got = run(unit.value(), iss_plan(97));
  ASSERT_TRUE(got.ok()) << got.error().to_string();
  EXPECT_EQ(got.value().tenants, 1u);
  EXPECT_EQ(got.value().context_switches, 31u);
  EXPECT_EQ(got.value().context_switch_cycles, 839u);
}

// ---------------- the sweep's tenant axis ----------------

TEST(SweepPreempt, TenantAxisAddsColumnsAndScalesCycles) {
  harness::SweepSpec spec;
  spec.kernels = {"dotprod"};
  spec.machines = {MachineKind::kZolcFull};
  spec.modes = {kIss};
  spec.tenants = {1, 2};
  const auto report = harness::run_sweep(spec);
  ASSERT_TRUE(report.ok()) << report.error().to_string();

  EXPECT_TRUE(
      report.value().shown(harness::sweep_axis(harness::Axis::kTenant)));
  const flow::ExperimentResult& one = report.value().at({});
  const flow::ExperimentResult& two = report.value().at({.tenant = 1});
  EXPECT_EQ(two.stats.cycles, 2 * one.stats.cycles);
  EXPECT_EQ(one.context_switch_cycles, 0u);
  EXPECT_GT(two.context_switch_cycles, 0u);

  const std::string csv = report.value().to_csv();
  EXPECT_NE(csv.find("tenants"), std::string::npos);
  EXPECT_NE(csv.find("ctx_switches,ctx_switch_cycles"), std::string::npos);
}

TEST(SweepPreempt, PipelineModesAreRejectedUpfront) {
  harness::SweepSpec tenants;
  tenants.kernels = {"dotprod"};
  tenants.tenants = {2};  // default (pipeline) mode axis
  const auto a = harness::run_sweep(tenants);
  ASSERT_FALSE(a.ok());
  EXPECT_EQ(a.error().code, ErrorCode::kBadConfig);
}

}  // namespace
}  // namespace zolcsim::flow
