// ZolcController: architectural model of the zero-overhead loop controller,
// the one controller the ISS and the pipeline hold. Its public surface
// mirrors the hardware hookup in Fig. 1 of the paper: the instruction
// decoder drives init-mode writes, the PC decoding unit exchanges task-end
// and redirect signals with it, and its index write-backs reach the
// register file through a dedicated port. One class models all three
// hardware variants (table geometry differs; uZOLC keeps its loop in a
// private register file and exports it as a one-task NestProgram). The
// geometry is a construction-time parameter: the default reproduces the
// paper's prototype, wider/deeper geometries size every table at runtime.
// All architectural state lives in one ZolcContext: context switches copy it
// whole, and reset() copies a power-on image over it.
//
// Event semantics (DESIGN.md 4.2); fetch_event runs walk_fetch_event over
// nest_program(), the same walk the ISS summary tier uses:
//  * task end     -- fetch PC matches the current task's end_pc: update the
//                    controlling loop's index, pick the continue/done
//                    successor, redirect fetch; `done` re-initializes the
//                    index (reinit-on-exit) so any later re-entry finds it
//                    ready; `done` at an is_last task deactivates.
//  * cascade      -- done-successor tasks sharing the same end_pc resolve
//                    combinationally in the same event (perfect-nest shared
//                    boundaries cost zero cycles).
//  * taken branch -- ZOLCfull matches candidate exit records (scoped to the
//                    current task's loop) and entry records; a match switches
//                    tasks and re-initializes the loops in the record's mask.
#ifndef ZOLCSIM_ZOLC_CONTROLLER_HPP
#define ZOLCSIM_ZOLC_CONTROLLER_HPP

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "isa/opcodes.hpp"
#include "zolc/accel.hpp"
#include "zolc/config.hpp"
#include "zolc/context.hpp"
#include "zolc/tables.hpp"

namespace zolcsim::zolc {

class ZolcController {
 public:
  /// Builds a controller of `variant` with the tables sized by `geometry`
  /// (restricted to the tables the variant implements). The default geometry
  /// is the paper's prototype. Precondition: geometry.valid().
  explicit ZolcController(ZolcVariant variant,
                          const ZolcGeometry& geometry = ZolcGeometry{});

  [[nodiscard]] ZolcVariant variant() const noexcept { return ctx_.variant; }
  [[nodiscard]] const ZolcGeometry& geometry() const noexcept {
    return ctx_.geometry;
  }
  [[nodiscard]] bool active() const noexcept { return ctx_.active; }
  [[nodiscard]] std::uint8_t current_task() const noexcept {
    return ctx_.current_task;
  }
  [[nodiscard]] const ZolcStats& zolc_stats() const noexcept {
    return ctx_.stats;
  }

  /// Human-readable dump of the programmed tables.
  [[nodiscard]] std::string describe() const;

  /// Clears all tables and state back to power-on. Allocates nothing.
  void reset();

  // ---- full context switching (DESIGN.md section 9) ----

  /// Captures the complete controller state: table images, live loop
  /// indices, task position, uZOLC registers, activation base, and event
  /// counters. The counters travel with the context so a resumed run
  /// reports the same final statistics as an uninterrupted one. Tests read
  /// the tables through it.
  [[nodiscard]] ZolcContext save_context() const { return ctx_; }

  /// Restores a context captured from a controller of the same variant and
  /// geometry. kBadContext, with this controller untouched, for any other
  /// context: a foreign variant, geometry or table size, a packed table id
  /// the init-bus write decoder would trap, or (lite/full) a current task
  /// outside the task table.
  [[nodiscard]] Result<void> restore_context(const ZolcContext& context);

  // ---- the processor hookup (Fig. 1) ----

  /// Initialization-mode table write (zolw.* instructions). `op` selects the
  /// table, `idx` the entry, `value` the payload (from GPR rs).
  void init_write(isa::Opcode op, std::uint8_t idx, std::uint32_t value);

  /// zolon: switch to active mode starting at `start_task`, with table PC
  /// offsets relative to byte address `base`.
  void activate(std::uint8_t start_task, std::uint32_t base);

  /// zoloff: leave active mode.
  void deactivate();

  /// Cheap check: does fetching `pc` raise an event? One compare against
  /// the armed task-end comparator, inline on both simulators' per-fetch
  /// path; also drives the pipeline's fetch-gating policy.
  [[nodiscard]] bool will_trigger(std::uint32_t pc) const noexcept {
    return armed_pc_ == pc;
  }

  /// The latched task-end comparator value: the PC whose fetch will raise
  /// the next event, when the controller is active and armed. Equivalent
  /// to the will_trigger() predicate, exposed as a value (the controller
  /// tests check it against the tables after every operation).
  [[nodiscard]] std::optional<std::uint32_t> trigger_pc() const noexcept {
    if (armed_pc_ == kDisarmed) return std::nullopt;
    return static_cast<std::uint32_t>(armed_pc_);
  }

  /// The fetch-time event ("PC decode" side) at `pc`. Precondition:
  /// will_trigger(pc). Performs the task switch, including combinational
  /// cascades across shared nest boundaries, sends the index write-backs
  /// to `sink(reg, value)` in order, counts the event, re-arms the trigger
  /// and returns the redirect (nullopt: fall through). A WalkFault raises
  /// as a SimError, after the writes that preceded it.
  template <typename Sink>
  std::optional<std::uint32_t> fetch_event(std::uint32_t pc, const Sink& sink);

  /// fetch_event with the write-backs collected into `ev`, for the
  /// pipeline, which applies them at resolution. The event is built in
  /// place: `ev` is the pipeline's event-ring slot, and whatever an older
  /// event left there is overwritten. Precondition: will_trigger(pc). A
  /// WalkFault does not raise here: it rides in the event, as the pipeline
  /// may be fetching `pc` on a wrong path.
  void on_fetch(std::uint32_t pc, AccelEvent& ev);

  /// Raises `fault`, which the walk hit at `pc` and stopped at `task`, as a
  /// SimError.
  [[noreturn, gnu::cold]] void raise_walk_fault(WalkFault fault,
                                                std::uint8_t task,
                                                std::uint32_t pc) const;

  /// Resolution-time hook: a taken branch/jump at `pc` targeting `target`.
  /// Matches candidate exit records (loop break-outs) and entry records
  /// (multi-entry loops); returns reinit write-backs when one matches.
  std::optional<AccelEvent> on_taken_control(std::uint32_t pc,
                                             std::uint32_t target);

  /// Captures the state a speculative fetch event changes into `out`, in
  /// place: the pipeline takes one into its event-ring slot at every
  /// task-end fetch, so it is inline and copies the live loops only once.
  void snapshot_into(AccelSnapshot& out) const noexcept {
    out.loop_count = static_cast<std::uint8_t>(ctx_.loop_current.size());
    std::copy(ctx_.loop_current.begin(), ctx_.loop_current.end(),
              out.loop_current.begin());
    out.current_task = ctx_.current_task;
    out.active = ctx_.active;
  }

  /// Restores a snapshot; a loop-count mismatch or (lite/full) a current
  /// task outside the task table traps with a SimError, with this
  /// controller untouched.
  void restore(const AccelSnapshot& snapshot);

  /// Summary-tier hook: the programmed tables in executable form, or
  /// nullptr while the controller is inactive. The pointer stays valid until
  /// the next table write, activation, or reset.
  [[nodiscard]] const NestProgram* nest_program() const;

  /// Summary-tier hook: credits event counters for boundary events the
  /// summary tier resolved itself via nest_program() (their architectural
  /// effects were applied through restore() and direct register writes).
  /// Mirrors exactly what the skipped fetch events would have counted.
  void credit_summary_events(std::uint64_t continues, std::uint64_t dones,
                             std::uint64_t cascades,
                             std::uint64_t max_cascade_depth);

 private:
  /// Maps a byte PC to a word offset (pc_ofs_bits wide) from the activation
  /// base, modulo 2^32; returns false when the PC lies outside the
  /// addressable window.
  [[nodiscard]] bool pc_to_ofs(std::uint32_t pc, std::uint16_t& ofs) const;
  [[nodiscard]] std::uint32_t ofs_to_pc(std::uint16_t ofs) const noexcept;

  /// The walk behind fetch_event and on_fetch: runs it, counts it and, if
  /// it did not fault, re-arms the trigger.
  template <typename Sink>
  WalkOutcome walk_event(std::uint32_t pc, const Sink& sink);

  /// Re-initializes every loop in `mask`, appending RF write-backs to `ev`.
  void apply_reinit_mask(std::uint32_t mask, AccelEvent& ev);

  /// Recomputes armed_pc_ -- the hardware's latched task-end comparator
  /// input -- after anything that changes the current task, the base, the
  /// uZOLC end register, or the active flag.
  void refresh_trigger() noexcept;

  /// armed_pc_ value no 32-bit fetch PC can match.
  static constexpr std::uint64_t kDisarmed = std::uint64_t{1} << 32;

  /// The architectural state: variant, geometry, the tables sized by it,
  /// live loop indices (uZOLC's index at [0]), uZOLC registers, activation
  /// base, task position, active flag and event counters. The members
  /// after it, but for power_on_, are caches derived from it.
  ZolcContext ctx_;
  std::uint32_t pc_mask_ = 0;  ///< mask32(ctx_.geometry.pc_ofs_bits)

  /// The task-end comparator: the fetch PC that raises the next event, or
  /// kDisarmed. refresh_trigger() keeps it equal to that PC after every
  /// call that changes it (activation, events, restores).
  std::uint64_t armed_pc_ = kDisarmed;

  /// Lazily built nest_program() export: a pure function of the tables and
  /// the activation base, so it is invalidated by init writes, activation,
  /// and reset, never by active-mode events.
  mutable NestProgram nest_prog_;
  mutable bool nest_dirty_ = true;
  /// Scratch for the walk_safe derivation in nest_program().
  mutable NestProgram forced_prog_;
  mutable std::vector<std::int32_t> forced_current_;

  /// The power-on image, built once by the constructor; reset() copies it
  /// over ctx_ in place. Last, so the hot members keep short offsets.
  const ZolcContext power_on_;
};

template <typename Sink>
std::optional<std::uint32_t> ZolcController::fetch_event(std::uint32_t pc,
                                                         const Sink& sink) {
  const WalkOutcome walk = walk_event(pc, sink);
  if (walk.fault != WalkFault::kNone) {
    raise_walk_fault(walk.fault, ctx_.current_task, pc);
  }
  return walk.redirect;
}

template <typename Sink>
WalkOutcome ZolcController::walk_event(std::uint32_t pc, const Sink& sink) {
  // An armed trigger implies an active controller, so the export exists;
  // only a stale one takes the out-of-line rebuild.
  const NestProgram& program = nest_dirty_ ? *nest_program() : nest_prog_;
  const WalkOutcome walk =
      walk_fetch_event(program, ctx_.loop_current.data(), ctx_.current_task,
                       ctx_.active, pc, sink);
  ZolcStats& stats = ctx_.stats;
  stats.continue_events += walk.continues;
  stats.done_events += walk.dones;
  if (walk.fault != WalkFault::kNone) return walk;
  if (walk.depth > 1) {
    ++stats.cascade_chains;
    stats.max_cascade_depth =
        std::max<std::uint64_t>(stats.max_cascade_depth, walk.depth);
  }
  refresh_trigger();
  return walk;
}

}  // namespace zolcsim::zolc

#endif  // ZOLCSIM_ZOLC_CONTROLLER_HPP
