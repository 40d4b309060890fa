#include "flow/run.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/strings.hpp"
#include "cpu/iss.hpp"

namespace zolcsim::flow {

namespace {

using Clock = std::chrono::steady_clock;

/// Tenant scheduling quantum (instructions per slice) when the plan leaves
/// preempt_every at 0.
constexpr std::uint64_t kDefaultQuantum = 4096;

std::uint64_t elapsed_ns(Clock::time_point started) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           started)
          .count());
}

/// The unit's loop controller, or null for machines without a ZOLC.
std::unique_ptr<zolc::ZolcController> make_controller(
    const CompiledUnit& unit) {
  if (const auto variant = codegen::machine_zolc_variant(unit.machine())) {
    return std::make_unique<zolc::ZolcController>(*variant, unit.geometry());
  }
  return nullptr;
}

/// Points `iss` at the unit's code and entry and attaches `controller`.
void load_iss(cpu::Iss& iss, const CompiledUnit& unit, const RunPlan& plan,
              zolc::ZolcController* controller) {
  iss.set_accelerator(controller);
  iss.set_code_image(unit.decoded());
  iss.set_fast_path(plan.mode.fast_path);
  iss.set_pc(unit.program().base);
}

/// Adds one ISS run to `out`. The ISS is 1-CPI by construction, so cycles
/// == instructions; pipeline-specific counters (stalls, flushes) stay zero.
void add_iss_stats(cpu::PipelineStats& out, const cpu::IssStats& stats) {
  out.cycles += stats.instructions;
  out.instructions += stats.instructions;
  out.taken_control += stats.taken_control;
  out.zolc_fetch_events += stats.zolc_fetch_events;
  out.zolc_resolution_events += stats.zolc_resolution_events;
}

/// A result carrying every field the unit and plan determine; the run
/// paths add the simulation's statistics and wall time.
ExperimentResult unit_result(const CompiledUnit& unit, const RunPlan& plan) {
  const codegen::Program& program = unit.program();
  ExperimentResult result;
  result.kernel = std::string(unit.kernel().name());
  result.machine = unit.machine();
  result.geometry = unit.geometry();
  result.mode = plan.mode;
  result.init_instructions = program.init_instructions;
  result.hw_loops = program.hw_loop_count;
  result.sw_loops = program.sw_loop_count;
  result.code_words = program.size_words();
  result.notes = program.notes;
  result.tenants = plan.tenants;
  return result;
}

void restore_or_throw(zolc::ZolcController& controller,
                      const zolc::ZolcContext& context) {
  if (auto restored = controller.restore_context(context); !restored.ok()) {
    throw SimError("context restore failed: " +
                   restored.error().to_string());
  }
}

void accumulate(zolc::ZolcStats& total, const zolc::ZolcStats& part) {
  total.continue_events += part.continue_events;
  total.done_events += part.done_events;
  total.cascade_chains += part.cascade_chains;
  total.max_cascade_depth =
      std::max(total.max_cascade_depth, part.max_cascade_depth);
  total.exit_matches += part.exit_matches;
  total.entry_matches += part.entry_matches;
  total.table_writes += part.table_writes;
}

void accumulate(cpu::FastPathStats& total, const cpu::FastPathStats& part) {
  total.attempts += part.attempts;
  total.engagements += part.engagements;
  total.replayed_backedges += part.replayed_backedges;
  total.replayed_instructions += part.replayed_instructions;
  for (std::size_t i = 0; i < part.bailouts.size(); ++i) {
    total.bailouts[i] += part.bailouts[i];
  }
}

/// Runs the unit on the functional ISS into `result`. With
/// plan.preempt_every set, execution is sliced and the controller's full
/// context is clobbered and restored at every boundary (counted in the
/// context-switch fields) -- architecturally invisible by the differential
/// tests.
void run_iss(const CompiledUnit& unit, Workload& workload,
             const RunPlan& plan, zolc::ZolcController* controller,
             ExperimentResult& result) {
  cpu::Iss iss(workload.memory());
  load_iss(iss, unit, plan, controller);
  if (plan.preempt_every == 0) {
    iss.run(plan.max_cycles);
  } else {
    std::uint64_t executed = 0;
    while (!iss.halted()) {
      if (executed >= plan.max_cycles) {
        throw SimError("ISS step limit (" + std::to_string(plan.max_cycles) +
                       ") exceeded at pc " + hex32(iss.pc()));
      }
      executed += iss.run_slice(
          std::min(plan.preempt_every, plan.max_cycles - executed));
      if (iss.halted()) break;
      if (controller != nullptr) {
        result.context_switch_cycles += preempt_cycle(*controller);
        ++result.context_switches;
      }
    }
  }
  add_iss_stats(result.stats, iss.stats());
  result.fastpath = iss.fastpath_stats();
}

/// Time-slices `plan.tenants` identical workloads of `unit` over one
/// controller, one quantum at a time, swapping the full accelerator context
/// (zolc::ZolcContext) whenever another tenant takes the fabric. Each
/// tenant keeps its own CPU state and memory image -- only the loop
/// controller is shared. The switch cost (DESIGN.md section 9) is counted
/// apart from the summed execution cycles, so tenant cells stay comparable
/// with single-tenant ones.
Result<ExperimentResult> run_tenants(const CompiledUnit& unit,
                                     const RunPlan& plan) {
  if (plan.tenants == 0) {
    return Error{ErrorCode::kBadConfig, "tenant count must be >= 1"};
  }
  if (plan.mode.engine != SimEngine::kIss) {
    return Error{ErrorCode::kBadConfig,
                 "tenant scheduling requires the ISS engine"};
  }
  ExperimentResult result = unit_result(unit, plan);
  const std::size_t n = plan.tenants;
  const std::uint64_t quantum =
      plan.preempt_every != 0 ? plan.preempt_every : kDefaultQuantum;
  const auto controller = make_controller(unit);

  // Workloads are built first and never moved afterwards: each Iss holds a
  // reference to its workload's memory.
  std::vector<Workload> workloads;
  workloads.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workloads.push_back(Workload::prepare_warm(unit));
  }
  std::vector<std::unique_ptr<cpu::Iss>> cpus;
  cpus.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    cpus.push_back(std::make_unique<cpu::Iss>(workloads[i].memory()));
    load_iss(*cpus.back(), unit, plan, controller.get());
  }
  // Every tenant starts from the power-on context of the shared controller.
  std::vector<zolc::ZolcContext> contexts(
      n, controller ? controller->save_context() : zolc::ZolcContext{});

  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::size_t resident = kNone;  ///< tenant whose context is on the fabric
  std::vector<std::uint64_t> executed(n, 0);

  const auto started = Clock::now();
  try {
    bool any_ran = true;
    while (any_ran) {
      any_ran = false;
      for (std::size_t i = 0; i < n; ++i) {
        if (cpus[i]->halted()) continue;
        any_ran = true;
        if (executed[i] >= plan.max_cycles) {
          throw SimError("tenant " + std::to_string(i) +
                         " exceeded the step limit (" +
                         std::to_string(plan.max_cycles) + ")");
        }
        if (controller && resident != i) {
          std::uint64_t cost = 0;
          if (resident != kNone) {
            contexts[resident] = controller->save_context();
            cost += zolc::context_switch_cost(contexts[resident]).save_words;
            ++result.context_switches;
          }
          controller->reset();
          restore_or_throw(*controller, contexts[i]);
          cost += zolc::context_switch_cost(contexts[i]).restore_words;
          result.context_switch_cycles += cost;
          resident = i;
        }
        executed[i] += cpus[i]->run_slice(
            std::min(quantum, plan.max_cycles - executed[i]));
      }
    }
    if (controller && resident != kNone) {
      contexts[resident] = controller->save_context();
    }
  } catch (const SimError& e) {
    return Error{ErrorCode::kSimulation, e.what()}.with_context(
        unit_label(unit.kernel().name(), unit.machine()) +
        ": tenant schedule failed");
  }
  result.wall_ns = elapsed_ns(started);

  for (std::size_t i = 0; i < n; ++i) {
    if (auto verified = workloads[i].verify(); !verified.ok()) {
      return std::move(verified).error().with_context(
          "tenant " + std::to_string(i));
    }
    add_iss_stats(result.stats, cpus[i]->stats());
    accumulate(result.fastpath, cpus[i]->fastpath_stats());
    if (controller) accumulate(result.zolc_stats, contexts[i].stats);
  }
  return result;
}

}  // namespace

std::string_view mode_name(const ExecMode& mode) {
  if (mode.engine == SimEngine::kPipeline) return "pipeline";
  return mode.fast_path ? "iss-fast" : "iss";
}

std::uint64_t preempt_cycle(zolc::ZolcController& controller) {
  const zolc::ZolcContext context = controller.save_context();
  controller.reset();  // clobber: restore must rebuild everything
  restore_or_throw(controller, context);
  return zolc::context_switch_cost(context).total_cycles();
}

Result<ExperimentResult> run(const CompiledUnit& unit, const RunPlan& plan) {
  if (plan.tenants != 1) return run_tenants(unit, plan);
  // One workload serves every repetition: each rep after the first resets
  // the copy-on-write dirty set instead of re-running Kernel::setup.
  Workload workload = Workload::prepare_warm(unit);
  auto result = run(unit, workload, plan);
  // Extra timing reps: identical runs on restored initial state, keeping
  // the minimum wall time (the least-disturbed measurement of the same
  // work).
  for (std::uint64_t rep = 1; result.ok() && rep < plan.timing_reps; ++rep) {
    workload.reset();
    auto again = run(unit, workload, plan);
    if (!again.ok()) return again;
    if (again.value().wall_ns < result.value().wall_ns) {
      result.value().wall_ns = again.value().wall_ns;
    }
    ++result.value().image_resets;
  }
  return result;
}

Result<ExperimentResult> run(const CompiledUnit& unit, Workload& workload,
                             const RunPlan& plan) {
  if (plan.tenants != 1) {
    return Error{ErrorCode::kBadConfig,
                 "tenant scheduling requires the fresh-workload run() path"};
  }
  if (plan.preempt_every != 0 && plan.mode.engine != SimEngine::kIss) {
    return Error{ErrorCode::kBadConfig,
                 "preemption requires the ISS engine"};
  }
  ExperimentResult result = unit_result(unit, plan);
  const auto controller = make_controller(unit);

  const auto started = Clock::now();
  try {
    if (plan.mode.engine == SimEngine::kIss) {
      run_iss(unit, workload, plan, controller.get(), result);
    } else {
      cpu::Pipeline pipe(workload.memory(), plan.config);
      pipe.set_accelerator(controller.get());
      pipe.set_code_image(unit.decoded());
      pipe.set_pc(unit.program().base);
      pipe.run(plan.max_cycles);
      result.stats = pipe.stats();
    }
  } catch (const SimError& e) {
    return Error{ErrorCode::kSimulation, e.what()}.with_context(
        unit_label(unit.kernel().name(), unit.machine()) +
        ": simulation failed");
  }
  result.wall_ns = elapsed_ns(started);

  if (auto verified = workload.verify(); !verified.ok()) {
    return std::move(verified).error();
  }
  if (controller) result.zolc_stats = controller->zolc_stats();
  return result;
}

}  // namespace zolcsim::flow
