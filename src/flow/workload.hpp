// Workload: the runtime-stage memory image for one CompiledUnit.
//
// prepare() loads the program image and the kernel's deterministic input
// data into a fresh simulator memory; prepare_warm() instead attaches the
// unit's cached immutable PreparedImage as a copy-on-write baseline, so the
// per-run cost is O(1) to create and O(dirty pages) to reset() between
// repetitions -- no Kernel::setup re-run. Both produce bit-identical
// effective memory. verify() closes the loop by checking the outputs
// against the kernel's golden C++ reference. A Workload is consumed by one
// run (the run mutates its memory); warm workloads can be reset() and
// reused, cold ones are prepared fresh per run.
#ifndef ZOLCSIM_FLOW_WORKLOAD_HPP
#define ZOLCSIM_FLOW_WORKLOAD_HPP

#include <memory>

#include "common/result.hpp"
#include "flow/compiled_unit.hpp"
#include "mem/memory.hpp"

namespace zolcsim::flow {

class Workload {
 public:
  /// Builds the initial memory image from scratch: program words at
  /// env.code_base plus the kernel's input/constant tables (Kernel::setup).
  [[nodiscard]] static Workload prepare(const CompiledUnit& unit);

  /// Warm-start variant: a copy-on-write view over the unit's shared
  /// prepared_image(). Reads the same bytes as prepare() but allocates no
  /// pages up front; the image is built at most once per unit.
  [[nodiscard]] static Workload prepare_warm(const CompiledUnit& unit);

  [[nodiscard]] mem::Memory& memory() noexcept { return memory_; }
  [[nodiscard]] const mem::Memory& memory() const noexcept { return memory_; }

  /// Restores the pristine prepared image so the workload can host another
  /// run: O(dirty pages) for warm workloads, a full rebuild for cold ones.
  void reset();

  /// Golden-reference output check (Kernel::verify). Fails with
  /// ErrorCode::kVerifyMismatch and a "kernel (machine)" context frame.
  [[nodiscard]] Result<void> verify() const;

 private:
  explicit Workload(const CompiledUnit& unit) : unit_(&unit) {}

  const CompiledUnit* unit_;  ///< non-owning (unit outlives workload)
  mem::Memory memory_;
};

}  // namespace zolcsim::flow

#endif  // ZOLCSIM_FLOW_WORKLOAD_HPP
