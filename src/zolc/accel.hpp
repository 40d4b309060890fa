// The ZOLC's event vocabulary, shared by the controller and the processor
// models that hold it: index write-backs (RfWrite), fetch- and
// resolution-time events (AccelEvent), the snapshot that rolls a
// speculative event back (AccelSnapshot), the programmed tables in
// executable form (NestProgram) and the one fetch-event walk over them
// (walk_fetch_event). The controller runs the walk at every task-end fetch;
// the ISS summary tier runs it itself while it replays a loop.
#ifndef ZOLCSIM_ZOLC_ACCEL_HPP
#define ZOLCSIM_ZOLC_ACCEL_HPP

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/bitutil.hpp"
#include "zolc/config.hpp"

namespace zolcsim::zolc {

/// An index write-back destined for the integer register file through the
/// ZOLC's dedicated write port.
struct RfWrite {
  std::uint8_t reg = 0;
  std::int32_t value = 0;

  friend bool operator==(const RfWrite&, const RfWrite&) = default;
};

/// Small-vector of RfWrites for the events whose writes wait: the
/// pipeline's fetch events (applied at resolution, and built again in the
/// same ring slot by later fetches) and resolution-time events. They almost
/// always carry one or two writes (a continue event's index update, a done
/// event's reinit), so the common case stays inline and allocation-free;
/// deep cascade reinits spill to the heap.
class RfWriteList {
 public:
  void push_back(const RfWrite& w) {
    if (spill_.empty() && n_ < kInlineCap) {
      inline_[n_++] = w;
      return;
    }
    if (spill_.empty()) {
      spill_.assign(inline_.begin(), inline_.begin() + n_);
      n_ = 0;  // invariant: a non-empty spill owns all elements
    }
    spill_.push_back(w);
  }

  /// Empties the list for reuse. A spilled list goes back to its inline
  /// storage; the spill keeps its capacity for the next deep cascade.
  void clear() noexcept {
    n_ = 0;
    spill_.clear();
  }

  [[nodiscard]] const RfWrite* begin() const noexcept {
    return spill_.empty() ? inline_.data() : spill_.data();
  }
  [[nodiscard]] const RfWrite* end() const noexcept { return begin() + size(); }
  [[nodiscard]] std::size_t size() const noexcept {
    return spill_.empty() ? n_ : spill_.size();
  }
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }
  [[nodiscard]] const RfWrite& operator[](std::size_t i) const noexcept {
    return begin()[i];
  }

 private:
  static constexpr std::size_t kInlineCap = 4;
  std::array<RfWrite, kInlineCap> inline_{};
  std::uint8_t n_ = 0;
  std::vector<RfWrite> spill_;
};

/// A fetch event the tables cannot resolve; the controller raises it as a
/// SimError.
enum class WalkFault : std::uint8_t {
  kNone,
  kInvalidLoop,     ///< a task in the walk names an invalid loop
  kCascadeTooDeep,  ///< the cascade passed loops.size() boundaries
};

/// Result of a fetch-time or resolution-time ZOLC event.
struct AccelEvent {
  /// New fetch target (task switching); nullopt = fall through.
  std::optional<std::uint32_t> redirect;
  /// Index write-backs. The pipeline applies them when the triggering
  /// instruction becomes non-speculative (entering its resolution stage).
  RfWriteList rf_writes;
  /// A fetch-time walk fault (ZolcController::on_fetch only) and the task
  /// the walk stopped at. The pipeline raises it through
  /// ZolcController::raise_walk_fault when the triggering instruction
  /// enters EX, which is on the correct path; a squash drops it.
  WalkFault fault = WalkFault::kNone;
  std::uint8_t fault_task = 0;
};

/// Architectural controller state that changes in active mode; saved before
/// each speculative fetch-time event and restored on wrong-path flushes,
/// and sized for the largest loop table any geometry may declare.
/// Snapshots sit on the simulators' hot paths (they ride the pipeline
/// latches while a fetch event is in flight), so copies touch only the
/// `loop_count` live entries, not the full worst-case array; entries at
/// index >= loop_count are uninitialized and must never be read. uZOLC's
/// one loop index lives in loop_current[0] (its geometry sizes one loop).
struct AccelSnapshot {
  std::array<std::int32_t, kMaxGeometryLoops> loop_current;
  std::uint8_t loop_count = 0;  ///< live prefix of loop_current
  std::uint8_t current_task = 0;
  bool active = false;

  AccelSnapshot() noexcept {}
  AccelSnapshot(const AccelSnapshot& other) noexcept { *this = other; }
  AccelSnapshot& operator=(const AccelSnapshot& other) noexcept {
    for (std::uint8_t i = 0; i < other.loop_count; ++i) {
      loop_current[i] = other.loop_current[i];
    }
    loop_count = other.loop_count;
    current_task = other.current_task;
    active = other.active;
    return *this;
  }

  friend bool operator==(const AccelSnapshot& a,
                         const AccelSnapshot& b) noexcept {
    if (a.loop_count != b.loop_count || a.current_task != b.current_task ||
        a.active != b.active) {
      return false;
    }
    for (std::uint8_t i = 0; i < a.loop_count; ++i) {
      if (a.loop_current[i] != b.loop_current[i]) return false;
    }
    return true;
  }
};

/// Loop-condition relation for NestLoopDesc, matching the controller's
/// comparator semantics: the back-edge is taken while
/// nest_cond_holds(cond, current + step, final).
enum class NestCond : std::uint8_t { kLt, kLe, kGt, kGe };

[[nodiscard]] inline bool nest_cond_holds(NestCond cond, std::int32_t value,
                                          std::int32_t final_value) noexcept {
  switch (cond) {
    case NestCond::kLt: return value < final_value;
    case NestCond::kLe: return value <= final_value;
    case NestCond::kGt: return value > final_value;
    case NestCond::kGe: return value >= final_value;
  }
  return false;
}

/// Back-edges a loop at `cur` will still take before its done event: the
/// largest n >= 0 with nest_cond_holds(cond, cur + k*step, fin) for every k
/// in [1, n]. Conditions are monotone along the step direction, so the count
/// is closed-form. Returns -1 when the recurrence does not terminate (step
/// zero or against the condition direction).
[[nodiscard]] inline std::int64_t nest_remaining_backedges(
    std::int64_t cur, std::int64_t step, std::int64_t fin,
    NestCond cond) noexcept {
  switch (cond) {
    case NestCond::kLt:
      if (step <= 0) return -1;
      return cur >= fin ? 0 : (fin - cur - 1) / step;
    case NestCond::kLe:
      if (step <= 0) return -1;
      return cur > fin ? 0 : (fin - cur) / step;
    case NestCond::kGt:
      if (step >= 0) return -1;
      return cur <= fin ? 0 : (cur - fin - 1) / -step;
    case NestCond::kGe:
      if (step >= 0) return -1;
      return cur < fin ? 0 : (cur - fin) / -step;
  }
  return -1;
}

/// One loop-table entry exported to the summary tier (NestProgram).
struct NestLoopDesc {
  std::uint8_t index_rf = 0;
  NestCond cond = NestCond::kLt;
  bool valid = false;
  /// ZOLCfull: candidate-exit records are armed for this loop; the summary
  /// tier declines bodies it controls.
  bool has_exit_records = false;
  std::int32_t step = 0;
  std::int32_t initial = 0;
  std::int32_t final = 0;
  /// Total iterations per entry from `initial` (back-edges + 1), or 0 when
  /// the recurrence does not terminate.
  std::uint64_t trips = 0;
};

/// One task-table entry exported to the summary tier, with the PC offsets
/// resolved to byte addresses against the activation base.
struct NestTaskDesc {
  std::uint32_t start_pc = 0;
  std::uint32_t end_pc = 0;
  std::uint8_t loop = 0;  ///< controlling loop (index into NestProgram::loops)
  std::uint8_t cont = 0;  ///< continue-successor task
  std::uint8_t done = 0;  ///< done-successor task
  bool is_last = false;
  /// uZOLC: done re-initializes the index and falls through to end_pc + 4
  /// with the controller still active and armed on this task.
  bool done_falls_through = false;
  bool valid = false;
  /// A fetch event at end_pc is statically guaranteed to resolve without a
  /// WalkFault: walk_fetch_event from this task with every loop forced onto
  /// its done branch (the longest cascade it can take) does not fault.
  /// Tasks without it never enter summary execution, so the baseline raises
  /// any table-programming fault precisely.
  bool walk_safe = false;
};

/// The controller's task/loop tables in summary-executable form: a pure
/// function of the programmed tables and activation base, so it stays valid
/// for a whole active period (tables cannot be rewritten while active).
/// Dynamic state (loop currents, current task) comes from AccelSnapshot.
/// uZOLC exports its one loop as a single task whose continue and done
/// successors are itself, with done_falls_through set.
struct NestProgram {
  std::vector<NestTaskDesc> tasks;
  std::vector<NestLoopDesc> loops;
};

/// Outcome of walk_fetch_event.
struct WalkOutcome {
  /// New fetch target; nullopt = fall through.
  std::optional<std::uint32_t> redirect;
  std::uint32_t continues = 0;
  std::uint32_t dones = 0;
  /// Boundaries resolved; above 1 is a cascade.
  unsigned depth = 0;
  WalkFault fault = WalkFault::kNone;
};

/// The ZOLC's fetch event at `pc` (DESIGN.md 4.2), shared by the controller,
/// the summary tier and walk_safe. While `active` and `task` ends at `pc`,
/// the loop's index takes a wrapping add of its step. A continue switches
/// `task` to the continue successor and redirects to its start. A done
/// re-initializes the index, then leaves the region (is_last clears
/// `active`, done_falls_through keeps it armed) or switches to the done
/// successor, which resolves in the same event if it also ends at `pc`.
/// Index writes land in `current[loop]` and, in order, in `sink(reg,
/// value)`. A fault stops the walk at the faulting task.
template <typename Sink>
WalkOutcome walk_fetch_event(const NestProgram& program, std::int32_t* current,
                             std::uint8_t& task, bool& active, std::uint32_t pc,
                             const Sink& sink) {
  WalkOutcome out;
  while (active) {
    const NestTaskDesc& t = program.tasks[task];
    if (!t.valid || t.end_pc != pc) break;
    if (++out.depth > program.loops.size()) {
      out.fault = WalkFault::kCascadeTooDeep;
      break;
    }
    const NestLoopDesc& loop = program.loops[t.loop];
    if (!loop.valid) {
      out.fault = WalkFault::kInvalidLoop;
      break;
    }
    const std::int32_t next = wrap_add(current[t.loop], loop.step);
    if (nest_cond_holds(loop.cond, next, loop.final)) {
      current[t.loop] = next;
      sink(loop.index_rf, next);
      task = t.cont;
      out.redirect = program.tasks[t.cont].start_pc;
      ++out.continues;
      break;
    }
    current[t.loop] = loop.initial;
    sink(loop.index_rf, loop.initial);
    ++out.dones;
    if (t.is_last || t.done_falls_through) {
      active = !t.is_last;
      out.redirect.reset();
      break;
    }
    task = t.done;
    out.redirect = program.tasks[t.done].start_pc;
  }
  return out;
}

}  // namespace zolcsim::zolc

#endif  // ZOLCSIM_ZOLC_ACCEL_HPP
