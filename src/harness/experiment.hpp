// The paper's cycle-reduction metric. The run vocabulary (ExecMode,
// ExperimentResult, ...) lives in flow/run.hpp.
#ifndef ZOLCSIM_HARNESS_EXPERIMENT_HPP
#define ZOLCSIM_HARNESS_EXPERIMENT_HPP

#include <cstdint>

#include "flow/run.hpp"

namespace zolcsim::harness {

// Aliases: perfbench/zolcbench.cpp names the run vocabulary zs::harness::*.
using flow::ExecMode;
using flow::ExperimentResult;
using flow::mode_name;
using flow::SimEngine;

/// Percentage cycle reduction of `cycles` vs `baseline` (paper's metric).
[[nodiscard]] double percent_reduction(std::uint64_t baseline,
                                       std::uint64_t cycles);

}  // namespace zolcsim::harness

#endif  // ZOLCSIM_HARNESS_EXPERIMENT_HPP
