// Full accelerator context: everything a ZolcController holds that is not
// derivable from its construction parameters -- table images, live loop
// indices, task position, the armed uZOLC register file, the activation
// base, and the event counters. A context is the unit of multi-tenant
// scheduling: save_context()/restore_context() move a suspended nest off and
// back onto one shared controller. Contexts live only in memory; the modeled
// cost of moving one over the init bus is context_switch_cost() (DESIGN.md
// section 9).
#ifndef ZOLCSIM_ZOLC_CONTEXT_HPP
#define ZOLCSIM_ZOLC_CONTEXT_HPP

#include <cstdint>
#include <vector>

#include "zolc/config.hpp"
#include "zolc/tables.hpp"

namespace zolcsim::zolc {

/// Event counters exposed for tests and the benchmark harness. Counters are
/// part of the schedulable context: a restored run must report the same
/// final statistics as an uninterrupted one.
struct ZolcStats {
  std::uint64_t continue_events = 0;  ///< hardware loop back-edges taken
  std::uint64_t done_events = 0;      ///< loop completions (incl. cascades)
  std::uint64_t cascade_chains = 0;   ///< events that resolved >1 boundary
  std::uint64_t max_cascade_depth = 0;
  std::uint64_t exit_matches = 0;     ///< candidate-exit record hits
  std::uint64_t entry_matches = 0;    ///< entry record hits
  std::uint64_t table_writes = 0;     ///< init-mode writes accepted

  friend bool operator==(const ZolcStats&, const ZolcStats&) = default;
};

/// uZOLC register state (the 32-bit data registers plus control, less the
/// live index, which sits with the loop indices); shared by the controller's
/// live state and the saved context.
struct MicroLoopState {
  std::int32_t initial = 0;
  std::int32_t final = 0;
  std::int32_t step = 0;
  std::uint32_t start_pc = 0;
  std::uint32_t end_pc = 0;
  std::uint8_t index_rf = 0;
  LoopCond cond = LoopCond::kLt;

  friend bool operator==(const MicroLoopState&,
                         const MicroLoopState&) = default;
};

/// A complete controller state image, sized by the geometry it was saved
/// from. Restorable only onto a controller of the same variant and geometry
/// (ErrorCode::kBadContext otherwise).
struct ZolcContext {
  ZolcVariant variant = ZolcVariant::kFull;
  ZolcGeometry geometry;  ///< variant-restricted (for_variant applied)
  std::vector<TaskEntry> tasks;
  std::vector<std::uint16_t> task_start;
  std::vector<LoopEntry> loops;
  /// Live loop indices, one per loop entry (uZOLC's index at [0]).
  std::vector<std::int32_t> loop_current;
  std::vector<ExitRecord> exits;
  std::vector<EntryRecord> entries;
  MicroLoopState micro;
  std::uint32_t base = 0;
  std::uint8_t current_task = 0;
  bool active = false;
  ZolcStats stats;

  friend bool operator==(const ZolcContext&, const ZolcContext&) = default;
};

/// Modeled cost of one full context switch in init-bus words (the bus moves
/// one 32-bit word per cycle, the same accounting as the paper's init
/// overhead). Save transfers only live state -- the loop index copies, the
/// uZOLC current register, and one position/status word; restore replays the
/// full init sequence for every valid table entry plus the live state, so
/// restore cost tracks the paper's per-kernel init overhead.
struct ContextSwitchCost {
  std::uint64_t save_words = 0;
  std::uint64_t restore_words = 0;

  [[nodiscard]] std::uint64_t total_cycles() const noexcept {
    return save_words + restore_words;
  }
};

[[nodiscard]] ContextSwitchCost context_switch_cost(const ZolcContext& ctx);

}  // namespace zolcsim::zolc

#endif  // ZOLCSIM_ZOLC_CONTEXT_HPP
