#include "flow/workload.hpp"

namespace zolcsim::flow {

Workload Workload::prepare(const CompiledUnit& unit) {
  Workload workload(unit);
  unit.program().load_into(workload.memory_);
  unit.kernel().setup(unit.env(), workload.memory_);
  return workload;
}

Workload Workload::prepare_warm(const CompiledUnit& unit) {
  Workload workload(unit);
  workload.memory_.set_baseline(unit.prepared_image());
  return workload;
}

void Workload::reset() {
  if (memory_.has_baseline()) {
    memory_.reset_to_baseline();
  } else {
    memory_ = mem::Memory();
    unit_->program().load_into(memory_);
    unit_->kernel().setup(unit_->env(), memory_);
  }
}

Result<void> Workload::verify() const {
  auto checked = unit_->kernel().verify(unit_->env(), memory_);
  if (checked.ok()) return checked;
  Error error = std::move(checked).error();
  if (error.code == ErrorCode::kUnknown) {
    error.code = ErrorCode::kVerifyMismatch;
  }
  return std::move(error).with_context(
      unit_label(unit_->kernel().name(), unit_->machine()) + ": verification");
}

}  // namespace zolcsim::flow
