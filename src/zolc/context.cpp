#include "zolc/context.hpp"

namespace zolcsim::zolc {

ContextSwitchCost context_switch_cost(const ZolcContext& ctx) {
  ContextSwitchCost cost;
  if (ctx.variant == ZolcVariant::kMicro) {
    // Save: the live index register + one status word. Restore: the seven
    // meaningful uZOLC registers + the status word.
    cost.save_words = 2;
    cost.restore_words = 8;
    return cost;
  }
  std::uint64_t valid_loops = 0;
  for (const LoopEntry& l : ctx.loops) valid_loops += l.valid ? 1 : 0;
  std::uint64_t valid_tasks = 0;
  for (const TaskEntry& t : ctx.tasks) valid_tasks += t.valid ? 1 : 0;
  std::uint64_t valid_records = 0;
  for (const ExitRecord& r : ctx.exits) valid_records += r.valid ? 1 : 0;
  for (const EntryRecord& r : ctx.entries) valid_records += r.valid ? 1 : 0;

  // Save moves only live state: one word per valid loop's index copy plus
  // one position/status word (current task, active flag).
  cost.save_words = valid_loops + 1;
  // Restore replays the init sequence -- two words per valid task (entry +
  // start), two per valid loop, record_words() per valid exit/entry record
  // (the paper's init-overhead accounting) -- then the live loop indices,
  // the activation base, and the position/status word.
  cost.restore_words = 2 * valid_tasks + 2 * valid_loops +
                       ctx.geometry.record_words() * valid_records +
                       valid_loops + 2;
  return cost;
}

}  // namespace zolcsim::zolc
