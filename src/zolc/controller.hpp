// ZolcController: architectural model of the zero-overhead loop controller,
// implementing the cpu::LoopAccelerator interface. One class models all
// three hardware variants (table geometry differs; uZOLC keeps its loop in a
// private register file and exports it as a one-task NestProgram). The
// geometry is a construction-time parameter: the default reproduces the
// paper's prototype, wider/deeper geometries size every table at runtime.
// The live loop indices sit in one array sized by the geometry's loops.
//
// Event semantics (DESIGN.md 4.2); on_fetch and on_fetch_into run
// cpu::walk_fetch_event over nest_program(), the same walk the ISS summary
// tier uses:
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

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "cpu/accel.hpp"
#include "zolc/config.hpp"
#include "zolc/context.hpp"
#include "zolc/tables.hpp"

namespace zolcsim::zolc {

class ZolcController final : public cpu::LoopAccelerator {
 public:
  /// Builds a controller of `variant` with the tables sized by `geometry`
  /// (restricted to the tables the variant implements). The default geometry
  /// is the paper's prototype. Precondition: geometry.valid().
  explicit ZolcController(ZolcVariant variant,
                          const ZolcGeometry& geometry = ZolcGeometry{});

  [[nodiscard]] ZolcVariant variant() const noexcept { return variant_; }
  [[nodiscard]] const ZolcGeometry& geometry() const noexcept { return geom_; }
  [[nodiscard]] bool active() const noexcept { return active_; }
  [[nodiscard]] std::uint8_t current_task() const noexcept {
    return current_task_;
  }
  [[nodiscard]] const ZolcStats& zolc_stats() const noexcept { return stats_; }

  /// Direct table access for tests and the loop-structure explorer example.
  [[nodiscard]] const TaskEntry& task(unsigned idx) const;
  [[nodiscard]] std::uint16_t task_start(unsigned idx) const;
  [[nodiscard]] const LoopEntry& loop(unsigned idx) const;
  [[nodiscard]] const ExitRecord& exit_record(unsigned idx) const;
  [[nodiscard]] const EntryRecord& entry_record(unsigned idx) const;

  /// Human-readable dump of the programmed tables.
  [[nodiscard]] std::string describe() const;

  /// Clears all tables and state back to power-on.
  void reset();

  // ---- full context switching (DESIGN.md section 9) ----

  /// Captures the complete controller state: table images, live loop
  /// indices, task position, uZOLC registers, activation base, and event
  /// counters. The counters travel with the context so a resumed run
  /// reports the same final statistics as an uninterrupted one.
  [[nodiscard]] ZolcContext save_context() const;

  /// Restores a context captured from a controller of the same variant and
  /// geometry; kBadContext otherwise, with this controller untouched.
  [[nodiscard]] Result<void> restore_context(const ZolcContext& context);

  /// Typed restore of the CPU-side loop-index snapshot: kBadContext when
  /// the snapshot's loop count does not match the active geometry (this
  /// controller untouched), instead of the untyped contract failure the
  /// virtual restore() surface turns it into.
  [[nodiscard]] Result<void> try_restore(const cpu::AccelSnapshot& snapshot);

  // ---- cpu::LoopAccelerator ----
  void init_write(isa::Opcode op, std::uint8_t idx,
                  std::uint32_t value) override;
  void activate(std::uint8_t start_task, std::uint32_t base) override;
  void deactivate() override;
  std::optional<cpu::AccelEvent> on_fetch(std::uint32_t pc) override;
  std::optional<std::uint32_t> on_fetch_into(std::uint32_t pc,
                                             cpu::RegFile& regs) override;
  std::optional<cpu::AccelEvent> on_taken_control(std::uint32_t pc,
                                                  std::uint32_t target) override;
  [[nodiscard]] cpu::AccelSnapshot snapshot() const override;
  void restore(const cpu::AccelSnapshot& snapshot) override;
  [[nodiscard]] const cpu::NestProgram* nest_program() const override;
  void credit_summary_events(std::uint64_t continues, std::uint64_t dones,
                             std::uint64_t cascades,
                             std::uint64_t max_cascade_depth) override;

 private:
  /// Maps a byte PC to a word offset (pc_ofs_bits wide) from the activation
  /// base, modulo 2^32; returns false when the PC lies outside the
  /// addressable window.
  [[nodiscard]] bool pc_to_ofs(std::uint32_t pc, std::uint16_t& ofs) const;
  [[nodiscard]] std::uint32_t ofs_to_pc(std::uint16_t ofs) const noexcept;

  /// The fetch event at the armed `pc`, shared by on_fetch and
  /// on_fetch_into: walks the tables, sending index writes to `sink`,
  /// counts the events, raises a WalkFault as SimError and re-arms the
  /// trigger. Returns the redirect.
  template <typename Sink>
  std::optional<std::uint32_t> fetch_event(std::uint32_t pc, const Sink& sink);

  /// Re-initializes every loop in `mask`, appending RF write-backs to `ev`.
  void apply_reinit_mask(std::uint32_t mask, cpu::AccelEvent& ev);

  /// Recomputes armed_pc_ -- the hardware's latched task-end comparator
  /// input -- after anything that changes the current task, the base, the
  /// uZOLC end register, or the active flag.
  void refresh_trigger() noexcept;

  ZolcVariant variant_;
  ZolcGeometry geom_;
  std::uint32_t pc_mask_ = 0;      ///< mask32(geom_.pc_ofs_bits), cached

  // ZOLClite / ZOLCfull storage, sized by geom_.
  std::vector<TaskEntry> tasks_;
  std::vector<std::uint16_t> task_start_;
  std::vector<LoopEntry> loops_;
  /// Live loop indices, one per loop entry (uZOLC's index at [0]).
  std::vector<std::int32_t> current_;
  std::vector<ExitRecord> exits_;
  std::vector<EntryRecord> entries_;
  std::uint32_t base_ = 0;

  // uZOLC storage (data + control registers; the index is current_[0]).
  MicroLoopState micro_;

  std::uint8_t current_task_ = 0;
  bool active_ = false;

  /// Lazily built nest_program() export: a pure function of the tables and
  /// the activation base, so it is invalidated by init writes, activation,
  /// and reset, never by active-mode events.
  mutable cpu::NestProgram nest_prog_;
  mutable bool nest_dirty_ = true;
  /// Scratch for the walk_safe derivation in nest_program().
  mutable cpu::NestProgram forced_prog_;
  mutable std::vector<std::int32_t> forced_current_;

  ZolcStats stats_;
};

}  // namespace zolcsim::zolc

#endif  // ZOLCSIM_ZOLC_CONTROLLER_HPP
