#include "flow/scheduler.hpp"

#include <chrono>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cpu/iss.hpp"

namespace zolcsim::flow {

namespace {

/// Round-trips `context` through the JSON codec, throwing on any rejection:
/// a context saved from a live controller must always serialize cleanly.
zolc::ZolcContext serialized_copy(const zolc::ZolcContext& context) {
  auto parsed = zolc::ZolcContext::from_json(context.to_json());
  if (!parsed.ok()) {
    throw cpu::SimError("context serialization round-trip failed: " +
                        parsed.error().to_string());
  }
  return std::move(parsed).value();
}

void restore_or_throw(zolc::ZolcController& controller,
                      const zolc::ZolcContext& context) {
  if (auto restored = controller.restore_context(context); !restored.ok()) {
    throw cpu::SimError("context restore failed: " +
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

}  // namespace

std::uint64_t preempt_cycle(zolc::ZolcController& controller, bool serialize) {
  zolc::ZolcContext context = controller.save_context();
  if (serialize) context = serialized_copy(context);
  controller.reset();  // clobber: restore must rebuild everything
  restore_or_throw(controller, context);
  return zolc::context_switch_cost(context).total_cycles();
}

Result<harness::ExperimentResult> run_tenants(const CompiledUnit& unit,
                                              const RunPlan& plan) {
  if (plan.tenants == 0) {
    return Error{ErrorCode::kBadConfig, "tenant count must be >= 1"};
  }
  if (plan.mode.engine != harness::SimEngine::kIss) {
    return Error{ErrorCode::kBadConfig,
                 "tenant scheduling requires the ISS engine"};
  }
  const codegen::Program& program = unit.program();
  const std::size_t n = plan.tenants;
  const std::uint64_t quantum =
      plan.preempt_every != 0 ? plan.preempt_every : kDefaultQuantum;

  std::unique_ptr<zolc::ZolcController> controller;
  if (const auto variant = codegen::machine_zolc_variant(unit.machine())) {
    controller =
        std::make_unique<zolc::ZolcController>(*variant, unit.geometry());
  }

  // Workloads are built first and never moved afterwards: each Iss holds a
  // reference to its workload's memory.
  std::vector<Workload> workloads;
  workloads.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workloads.push_back(plan.warm_start ? Workload::prepare_warm(unit)
                                        : Workload::prepare(unit));
  }
  std::vector<std::unique_ptr<cpu::Iss>> cpus;
  cpus.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto iss = std::make_unique<cpu::Iss>(workloads[i].memory());
    iss->set_accelerator(controller.get());
    iss->set_code_image(unit.image());
    iss->set_fast_path(plan.mode.fast_path);
    iss->set_pc(program.base);
    cpus.push_back(std::move(iss));
  }
  // Every tenant starts from the power-on context of the shared controller.
  std::vector<zolc::ZolcContext> contexts(
      n, controller ? controller->save_context() : zolc::ZolcContext{});

  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::size_t resident = kNone;  ///< tenant whose context is on the fabric
  std::vector<std::uint64_t> executed(n, 0);
  std::uint64_t switches = 0;
  std::uint64_t switch_cycles = 0;

  const auto started = std::chrono::steady_clock::now();
  try {
    bool any_ran = true;
    while (any_ran) {
      any_ran = false;
      for (std::size_t i = 0; i < n; ++i) {
        if (cpus[i]->halted()) continue;
        any_ran = true;
        if (executed[i] >= plan.max_cycles) {
          throw cpu::SimError("tenant " + std::to_string(i) +
                              " exceeded the step limit (" +
                              std::to_string(plan.max_cycles) + ")");
        }
        if (controller && resident != i) {
          std::uint64_t cost = 0;
          if (resident != kNone) {
            contexts[resident] = controller->save_context();
            if (plan.preempt_serialize) {
              contexts[resident] = serialized_copy(contexts[resident]);
            }
            cost += zolc::context_switch_cost(contexts[resident]).save_words;
            ++switches;
          }
          controller->reset();
          restore_or_throw(*controller, contexts[i]);
          cost += zolc::context_switch_cost(contexts[i]).restore_words;
          switch_cycles += cost;
          resident = i;
        }
        executed[i] += cpus[i]->run_slice(
            std::min(quantum, plan.max_cycles - executed[i]));
      }
    }
    if (controller && resident != kNone) {
      contexts[resident] = controller->save_context();
    }
  } catch (const cpu::SimError& e) {
    return Error{ErrorCode::kSimulation, e.what()}.with_context(
        unit_label(unit.kernel().name(), unit.machine()) +
        ": tenant schedule failed");
  }
  const auto wall = std::chrono::steady_clock::now() - started;

  harness::ExperimentResult result;
  for (std::size_t i = 0; i < n; ++i) {
    if (auto verified = workloads[i].verify(); !verified.ok()) {
      return std::move(verified).error().with_context(
          "tenant " + std::to_string(i));
    }
    const cpu::IssStats& stats = cpus[i]->stats();
    result.stats.cycles += stats.instructions;  // ISS is 1-CPI
    result.stats.instructions += stats.instructions;
    result.stats.taken_control += stats.taken_control;
    result.stats.zolc_fetch_events += stats.zolc_fetch_events;
    result.stats.zolc_resolution_events += stats.zolc_resolution_events;
    accumulate(result.fastpath, cpus[i]->fastpath_stats());
    if (controller) accumulate(result.zolc_stats, contexts[i].stats);
  }

  result.kernel = std::string(unit.kernel().name());
  result.machine = unit.machine();
  result.geometry = unit.geometry();
  result.mode = plan.mode;
  result.init_instructions = program.init_instructions;
  result.hw_loops = program.hw_loop_count;
  result.sw_loops = program.sw_loop_count;
  result.code_words = program.size_words();
  result.notes = program.notes;
  result.wall_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(wall).count());
  result.full_prepares = plan.warm_start ? 0 : n;
  result.tenants = plan.tenants;
  result.context_switches = switches;
  result.context_switch_cycles = switch_cycles;
  return result;
}

}  // namespace zolcsim::flow
