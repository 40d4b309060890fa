#include "cpu/pipeline.hpp"

#include "cpu/cycle.hpp"

namespace zolcsim::cpu {

Pipeline::Pipeline(mem::Memory& memory, PipelineConfig config)
    : mem_(memory), config_(config) {}

template <PipelineConfig C>
std::uint64_t Pipeline::run_as(std::uint64_t max_cycles) {
  std::uint64_t consumed = 0;
  while (!halted_) {
    if (consumed >= max_cycles) {
      throw_cycle_limit(max_cycles, pc_);
    }
    cycle<C, false>();
    ++consumed;
  }
  return consumed;
}

std::uint64_t Pipeline::run(std::uint64_t max_cycles) {
  // Only a run that can skip looks out for steady states.
  if (image_ != nullptr && accel_ != nullptr && !retire_hook_) {
    return run_skipping(max_cycles);
  }
  using R = BranchResolveStage;
  using S = SpeculationPolicy;
  using Loop = std::uint64_t (Pipeline::*)(std::uint64_t);
  static_assert(static_cast<int>(R::kExecute) == 1 &&
                static_cast<int>(S::kGate) == 1);
  // Indexed [branch_resolve][speculation][forwarding].
  static constexpr Loop kLoops[] = {
      &Pipeline::run_as<PipelineConfig{R::kDecode, S::kRollback, false}>,
      &Pipeline::run_as<PipelineConfig{R::kDecode, S::kRollback, true}>,
      &Pipeline::run_as<PipelineConfig{R::kDecode, S::kGate, false}>,
      &Pipeline::run_as<PipelineConfig{R::kDecode, S::kGate, true}>,
      &Pipeline::run_as<PipelineConfig{R::kExecute, S::kRollback, false}>,
      &Pipeline::run_as<PipelineConfig{R::kExecute, S::kRollback, true}>,
      &Pipeline::run_as<PipelineConfig{R::kExecute, S::kGate, false}>,
      &Pipeline::run_as<PipelineConfig{R::kExecute, S::kGate, true}>,
  };
  const std::size_t index =
      static_cast<std::size_t>(config_.branch_resolve) * 4 +
      static_cast<std::size_t>(config_.speculation) * 2 +
      (config_.forwarding ? 1 : 0);
  return (this->*kLoops[index])(max_cycles);
}

}  // namespace zolcsim::cpu
