#include "zolc/controller.hpp"

#include <algorithm>
#include <limits>
#include <sstream>

#include "common/bitutil.hpp"
#include "common/contracts.hpp"
#include "common/strings.hpp"

namespace zolcsim::zolc {

namespace {

using isa::Opcode;

/// A valid loop-table entry or the uZOLC registers in exported form, with
/// the trip count from `initial`.
template <typename Loop>
NestLoopDesc nest_loop(const Loop& l) {
  static_assert(static_cast<int>(LoopCond::kLt) ==
                        static_cast<int>(NestCond::kLt) &&
                    static_cast<int>(LoopCond::kGe) ==
                        static_cast<int>(NestCond::kGe),
                "NestCond must mirror LoopCond");
  NestLoopDesc d;
  d.valid = true;
  d.index_rf = l.index_rf;
  d.cond = static_cast<NestCond>(l.cond);
  d.step = l.step;
  d.initial = l.initial;
  d.final = l.final;
  const std::int64_t edges =
      nest_remaining_backedges(l.initial, l.step, l.final, d.cond);
  d.trips = edges < 0 ? 0 : static_cast<std::uint64_t>(edges) + 1;
  return d;
}

/// Whether every table id `task` packs names an entry of `geom`. The field
/// widths are rounded up to whole bits, so non-power-of-two geometries admit
/// encodings beyond the table sizes: the init-bus write decoder traps them,
/// and a context restore rejects them.
bool ids_in_range(const TaskEntry& task, const ZolcGeometry& geom) {
  return task.loop_id < geom.max_loops &&
         task.next_task_cont < geom.max_tasks &&
         task.next_task_done < geom.max_tasks;
}

/// Same, for an exit or entry record's successor task.
template <typename Record>
bool ids_in_range(const Record& record, const ZolcGeometry& geom) {
  return record.next_task < geom.max_tasks;
}

/// kBadContext unless `context` can replace `target` (a controller's live
/// image): the same variant, geometry and table sizes, every packed table
/// id in range, and on lite/full a current task inside the task table.
Result<void> validate(const ZolcContext& context, const ZolcContext& target) {
  const ZolcGeometry& geom = target.geometry;
  if (context.variant != target.variant || !(context.geometry == geom)) {
    return Error{ErrorCode::kBadContext,
                 "context for " + std::string(variant_name(context.variant)) +
                     "/" + context.geometry.label() + " cannot restore onto " +
                     std::string(variant_name(target.variant)) + "/" +
                     geom.label()};
  }
  if (context.tasks.size() != target.tasks.size() ||
      context.task_start.size() != target.task_start.size() ||
      context.loops.size() != target.loops.size() ||
      context.loop_current.size() != target.loop_current.size() ||
      context.exits.size() != target.exits.size() ||
      context.entries.size() != target.entries.size()) {
    return Error{ErrorCode::kBadContext,
                 "context table sizes do not match geometry " + geom.label()};
  }
  const auto in_range = [&geom](const auto& entry) {
    return ids_in_range(entry, geom);
  };
  const bool task_ok = context.variant == ZolcVariant::kMicro ||
                       context.current_task < context.tasks.size();
  if (!task_ok || !std::ranges::all_of(context.tasks, in_range) ||
      !std::ranges::all_of(context.exits, in_range) ||
      !std::ranges::all_of(context.entries, in_range)) {
    return Error{ErrorCode::kBadContext,
                 "context names a task or table id outside geometry " +
                     geom.label()};
  }
  return {};
}

/// The power-on image: every table entry invalid, every index and counter
/// zero, the vectors sized by the variant-restricted geometry.
ZolcContext power_on_context(ZolcVariant variant,
                             const ZolcGeometry& geometry) {
  ZS_EXPECTS(geometry.valid());
  ZolcContext ctx;
  ctx.variant = variant;
  ctx.geometry = geometry.for_variant(variant);
  const ZolcGeometry& g = ctx.geometry;
  ctx.tasks.resize(g.max_tasks);
  ctx.task_start.resize(g.max_tasks);
  ctx.loops.resize(g.max_loops);
  ctx.loop_current.resize(g.max_loops);
  ctx.exits.resize(g.exit_record_count());
  ctx.entries.resize(g.entry_record_count());
  return ctx;
}

}  // namespace

ZolcController::ZolcController(ZolcVariant variant,
                               const ZolcGeometry& geometry)
    : ctx_(power_on_context(variant, geometry)),
      pc_mask_(mask32(ctx_.geometry.pc_ofs_bits)),
      power_on_(ctx_) {}

void ZolcController::reset() {
  ctx_ = power_on_;  // equal vector sizes: copies in place, allocates nothing
  nest_dirty_ = true;
  refresh_trigger();
}

void ZolcController::refresh_trigger() noexcept {
  armed_pc_ = kDisarmed;
  if (!ctx_.active) return;
  if (ctx_.variant == ZolcVariant::kMicro) {
    armed_pc_ = ctx_.micro.end_pc;
  } else if (!ctx_.tasks.empty() && ctx_.tasks[ctx_.current_task].valid) {
    armed_pc_ = ofs_to_pc(ctx_.tasks[ctx_.current_task].end_pc_ofs);
  }
}

void ZolcController::init_write(Opcode op, std::uint8_t idx,
                                std::uint32_t value) {
  if (ctx_.active) {
    throw SimError("ZOLC table write while the controller is active");
  }
  ++ctx_.stats.table_writes;
  nest_dirty_ = true;
  const ZolcVariant variant = ctx_.variant;
  const ZolcGeometry& geom = ctx_.geometry;
  MicroLoopState& micro = ctx_.micro;
  switch (op) {
    case Opcode::kZolwTe: {
      if (variant == ZolcVariant::kMicro || idx >= ctx_.tasks.size()) {
        throw SimError("zolw.te: no task entry " + std::to_string(idx) +
                       " on " + std::string(variant_name(variant)));
      }
      const TaskEntry entry = TaskEntry::unpack(value, geom);
      if (!ids_in_range(entry, geom)) {
        throw SimError("zolw.te: packed id out of range for geometry " +
                       geom.label());
      }
      ctx_.tasks[idx] = entry;
      break;
    }
    case Opcode::kZolwTs:
      if (variant == ZolcVariant::kMicro || idx >= ctx_.tasks.size()) {
        throw SimError("zolw.ts: no task entry " + std::to_string(idx) +
                       " on " + std::string(variant_name(variant)));
      }
      ctx_.task_start[idx] = static_cast<std::uint16_t>(value & pc_mask_);
      break;
    case Opcode::kZolwLp0:
    case Opcode::kZolwLp1:
      if (variant == ZolcVariant::kMicro || idx >= ctx_.loops.size()) {
        throw SimError("zolw.lp: no loop entry " + std::to_string(idx) +
                       " on " + std::string(variant_name(variant)));
      }
      if (op == Opcode::kZolwLp0) ctx_.loops[idx].unpack_word0(value);
      else ctx_.loops[idx].unpack_word1(value);
      break;
    case Opcode::kZolwEx0:
    case Opcode::kZolwEx1: {
      if (variant != ZolcVariant::kFull || idx >= ctx_.exits.size()) {
        throw SimError("zolw.ex: no exit record " + std::to_string(idx) +
                       " on " + std::string(variant_name(variant)));
      }
      ExitRecord record = ctx_.exits[idx];  // a trapped write changes nothing
      if (op == Opcode::kZolwEx0) record.unpack_lo(value, geom);
      else record.unpack_hi(value, geom);
      if (!ids_in_range(record, geom)) {
        throw SimError("zolw.ex: packed next_task out of range for geometry " +
                       geom.label());
      }
      ctx_.exits[idx] = record;
      break;
    }
    case Opcode::kZolwEn0:
    case Opcode::kZolwEn1: {
      if (variant != ZolcVariant::kFull || idx >= ctx_.entries.size()) {
        throw SimError("zolw.en: no entry record " + std::to_string(idx) +
                       " on " + std::string(variant_name(variant)));
      }
      EntryRecord record = ctx_.entries[idx];
      if (op == Opcode::kZolwEn0) record.unpack_lo(value, geom);
      else record.unpack_hi(value, geom);
      if (!ids_in_range(record, geom)) {
        throw SimError("zolw.en: packed next_task out of range for geometry " +
                       geom.label());
      }
      ctx_.entries[idx] = record;
      break;
    }
    case Opcode::kZolwU: {
      if (variant != ZolcVariant::kMicro || idx >= kMicroRegCount) {
        throw SimError("zolw.u: no uZOLC register " + std::to_string(idx) +
                       " on " + std::string(variant_name(variant)));
      }
      const auto sv = static_cast<std::int32_t>(value);
      switch (static_cast<MicroReg>(idx)) {
        case MicroReg::kInitial: micro.initial = sv; break;
        case MicroReg::kFinal:   micro.final = sv; break;
        case MicroReg::kStep:    micro.step = sv; break;
        case MicroReg::kCurrent: ctx_.loop_current[0] = sv; break;
        case MicroReg::kStartPc: micro.start_pc = value; break;
        case MicroReg::kEndPc:   micro.end_pc = value; break;
        case MicroReg::kCtrl:
          micro.index_rf = static_cast<std::uint8_t>(extract_bits(value, 0, 5));
          micro.cond = static_cast<LoopCond>(extract_bits(value, 5, 2));
          break;
        case MicroReg::kCount:
        case MicroReg::kStatus:
          break;  // reserved, accepted and ignored
      }
      break;
    }
    default:
      throw SimError("not a ZOLC table-write opcode");
  }
}

void ZolcController::activate(std::uint8_t start_task, std::uint32_t base) {
  if (ctx_.active) {
    throw SimError("zolon while the controller is already active");
  }
  if (ctx_.variant == ZolcVariant::kMicro) {
    ctx_.loop_current[0] = ctx_.micro.initial;
    ctx_.active = true;
    refresh_trigger();
    return;
  }
  if (start_task >= ctx_.tasks.size()) {
    throw SimError("zolon: start task " + std::to_string(start_task) +
                   " out of range");
  }
  if (!is_aligned(base, 4)) {
    throw SimError("zolon: base address " + hex32(base) +
                   " is not word-aligned");
  }
  ctx_.base = base;
  nest_dirty_ = true;  // the export resolves table offsets against the base
  ctx_.current_task = start_task;
  for (unsigned i = 0; i < ctx_.loops.size(); ++i) {
    if (ctx_.loops[i].valid) ctx_.loop_current[i] = ctx_.loops[i].initial;
  }
  ctx_.active = true;
  refresh_trigger();
}

void ZolcController::deactivate() {
  ctx_.active = false;
  refresh_trigger();
}

bool ZolcController::pc_to_ofs(std::uint32_t pc, std::uint16_t& ofs) const {
  // Modulo 2^32, as ofs_to_pc.
  const std::uint32_t delta = (pc - ctx_.base) >> 2;
  if (delta > pc_mask_) return false;
  ofs = static_cast<std::uint16_t>(delta);
  return true;
}

std::uint32_t ZolcController::ofs_to_pc(std::uint16_t ofs) const noexcept {
  return ctx_.base + (static_cast<std::uint32_t>(ofs) << 2);
}

void ZolcController::raise_walk_fault(WalkFault fault, std::uint8_t task,
                                      std::uint32_t pc) const {
  // The tables cannot change while the controller is active, so the export
  // still names the loop the walk found invalid.
  if (fault == WalkFault::kInvalidLoop) {
    throw SimError("task " + std::to_string(task) +
                   " references invalid loop " +
                   std::to_string(nest_prog_.tasks[task].loop));
  }
  ZS_ASSERT(fault == WalkFault::kCascadeTooDeep);
  throw SimError("ZOLC cascade exceeded hardware depth at " + hex32(pc));
}

void ZolcController::on_fetch(std::uint32_t pc, AccelEvent& ev) {
  ZS_EXPECTS(will_trigger(pc));
  ev.rf_writes.clear();
  const WalkOutcome walk =
      walk_event(pc, [&ev](std::uint8_t reg, std::int32_t value) {
        ev.rf_writes.push_back(RfWrite{reg, value});
      });
  ev.redirect = walk.redirect;
  ev.fault = walk.fault;
  ev.fault_task = ctx_.current_task;
}

void ZolcController::apply_reinit_mask(std::uint32_t mask, AccelEvent& ev) {
  for (unsigned i = 0; i < ctx_.geometry.max_loops; ++i) {
    if ((mask & (1u << i)) == 0) continue;
    const LoopEntry& loop = ctx_.loops[i];
    if (!loop.valid) {
      throw SimError("reinit mask references invalid loop " +
                     std::to_string(i));
    }
    ctx_.loop_current[i] = loop.initial;
    ev.rf_writes.push_back(RfWrite{loop.index_rf, loop.initial});
  }
}

std::optional<AccelEvent> ZolcController::on_taken_control(
    std::uint32_t pc, std::uint32_t target) {
  if (!ctx_.active || ctx_.variant != ZolcVariant::kFull) return std::nullopt;

  AccelEvent ev;
  bool matched = false;

  // Candidate exits, scoped to the current task's controlling loop (the
  // hardware compares only that loop's bank of records).
  const TaskEntry& t = ctx_.tasks[ctx_.current_task];
  std::uint16_t ofs = 0;
  if (t.valid && pc_to_ofs(pc, ofs)) {
    const unsigned bank = t.loop_id * ctx_.geometry.max_exits_per_loop;
    for (unsigned slot = 0; slot < ctx_.geometry.max_exits_per_loop; ++slot) {
      const ExitRecord& r = ctx_.exits[bank + slot];
      if (!r.valid || r.branch_pc_ofs != ofs) continue;
      matched = true;
      ++ctx_.stats.exit_matches;
      apply_reinit_mask(r.reinit_mask, ev);
      ctx_.current_task = r.next_task;
      if (r.deactivate) ctx_.active = false;
      break;
    }
  }

  // Multi-entry records, matched on the transfer target.
  std::uint16_t tofs = 0;
  if (ctx_.active && pc_to_ofs(target, tofs)) {
    for (const EntryRecord& r : ctx_.entries) {
      if (!r.valid || r.entry_pc_ofs != tofs) continue;
      matched = true;
      ++ctx_.stats.entry_matches;
      apply_reinit_mask(r.reinit_mask, ev);
      ctx_.current_task = r.next_task;
      break;
    }
  }

  if (!matched) return std::nullopt;
  refresh_trigger();
  return ev;
}

const NestProgram* ZolcController::nest_program() const {
  if (!ctx_.active) return nullptr;
  if (!nest_dirty_) return &nest_prog_;
  if (ctx_.variant == ZolcVariant::kMicro) {
    // One task over the micro registers' region. Its done event
    // re-initializes the index and falls through, leaving the controller
    // armed for a re-entry by an enclosing software loop.
    NestTaskDesc task;
    task.start_pc = ctx_.micro.start_pc;
    task.end_pc = ctx_.micro.end_pc;
    task.done_falls_through = true;
    task.valid = true;
    nest_prog_.tasks.assign(1, task);
    nest_prog_.loops.assign(1, nest_loop(ctx_.micro));
  } else {
    nest_prog_.loops.assign(ctx_.loops.size(), NestLoopDesc{});
    nest_prog_.tasks.assign(ctx_.tasks.size(), NestTaskDesc{});
    for (unsigned i = 0; i < ctx_.loops.size(); ++i) {
      if (!ctx_.loops[i].valid) continue;
      NestLoopDesc& d = nest_prog_.loops[i];
      d = nest_loop(ctx_.loops[i]);
      if (ctx_.variant == ZolcVariant::kFull) {
        const unsigned per_loop = ctx_.geometry.max_exits_per_loop;
        for (unsigned slot = 0; slot < per_loop; ++slot) {
          if (ctx_.exits[i * per_loop + slot].valid) {
            d.has_exit_records = true;
            break;
          }
        }
      }
    }
    for (unsigned i = 0; i < ctx_.tasks.size(); ++i) {
      const TaskEntry& t = ctx_.tasks[i];
      NestTaskDesc& d = nest_prog_.tasks[i];
      // start_pc resolves for every entry: the event walk redirects to a
      // successor's start without a validity check.
      d.start_pc = ofs_to_pc(ctx_.task_start[i]);
      d.valid = t.valid;
      if (!t.valid) continue;
      d.end_pc = ofs_to_pc(t.end_pc_ofs);
      d.loop = t.loop_id;
      d.cont = t.next_task_cont;
      d.done = t.next_task_done;
      d.is_last = t.is_last;
    }
  }
  // walk_safe: with every loop forced onto its done branch, the walk from a
  // task takes the longest cascade any event there can, so if that walk
  // does not fault, no live event at the task can. The forced copy and its
  // indices live in members, so a rebuild (every zolon and context
  // restore) allocates nothing once they have grown to the geometry.
  NestProgram& forced = forced_prog_;
  forced = nest_prog_;
  for (NestLoopDesc& l : forced.loops) {
    l.cond = NestCond::kLt;
    l.final = std::numeric_limits<std::int32_t>::min();
  }
  const auto no_sink = [](std::uint8_t, std::int32_t) {};
  std::vector<std::int32_t>& indices = forced_current_;
  indices.resize(forced.loops.size());
  for (unsigned i = 0; i < forced.tasks.size(); ++i) {
    if (!forced.tasks[i].valid) continue;
    auto task = static_cast<std::uint8_t>(i);
    bool active = true;
    const WalkOutcome walk = walk_fetch_event(
        forced, indices.data(), task, active, forced.tasks[i].end_pc, no_sink);
    nest_prog_.tasks[i].walk_safe = walk.fault == WalkFault::kNone;
  }
  nest_dirty_ = false;
  return &nest_prog_;
}

void ZolcController::credit_summary_events(std::uint64_t continues,
                                           std::uint64_t dones,
                                           std::uint64_t cascades,
                                           std::uint64_t max_cascade_depth) {
  ctx_.stats.continue_events += continues;
  ctx_.stats.done_events += dones;
  ctx_.stats.cascade_chains += cascades;
  ctx_.stats.max_cascade_depth =
      std::max(ctx_.stats.max_cascade_depth, max_cascade_depth);
}

void ZolcController::restore(const AccelSnapshot& snapshot) {
  std::vector<std::int32_t>& current = ctx_.loop_current;
  if (snapshot.loop_count != current.size()) {
    throw SimError("snapshot carries " + std::to_string(snapshot.loop_count) +
                   " loops, geometry " + ctx_.geometry.label() + " has " +
                   std::to_string(current.size()));
  }
  if (ctx_.variant != ZolcVariant::kMicro &&
      snapshot.current_task >= ctx_.tasks.size()) {
    throw SimError("snapshot current task " +
                   std::to_string(snapshot.current_task) +
                   " out of range for geometry " + ctx_.geometry.label());
  }
  std::copy_n(snapshot.loop_current.begin(), current.size(), current.begin());
  ctx_.current_task = snapshot.current_task;
  ctx_.active = snapshot.active;
  refresh_trigger();
}

Result<void> ZolcController::restore_context(const ZolcContext& context) {
  if (auto valid = validate(context, ctx_); !valid.ok()) return valid;
  ctx_ = context;      // equal vector sizes: copies in place
  nest_dirty_ = true;  // the export resolves table offsets against the base
  refresh_trigger();
  return {};
}

std::string ZolcController::describe() const {
  const MicroLoopState& micro = ctx_.micro;
  const ZolcGeometry& geom = ctx_.geometry;
  std::ostringstream os;
  os << "ZOLC variant: " << variant_name(ctx_.variant)
     << (ctx_.active
             ? " [active, task " + std::to_string(ctx_.current_task) + "]"
             : " [inactive]")
     << '\n';
  if (ctx_.variant == ZolcVariant::kMicro) {
    os << "  loop: initial=" << micro.initial << " final=" << micro.final
       << " step=" << micro.step << " current=" << ctx_.loop_current[0]
       << " index_rf=" << isa::reg_name(micro.index_rf)
       << " start=" << hex32(micro.start_pc) << " end=" << hex32(micro.end_pc)
       << '\n';
    return os.str();
  }
  os << "  geometry: " << geom.label() << '\n';
  os << "  base: " << hex32(ctx_.base) << '\n';
  for (unsigned i = 0; i < ctx_.tasks.size(); ++i) {
    const TaskEntry& t = ctx_.tasks[i];
    if (!t.valid) continue;
    os << "  task " << i << ": start_ofs=" << ctx_.task_start[i]
       << " end_ofs=" << t.end_pc_ofs << " loop=" << unsigned(t.loop_id)
       << " cont->" << unsigned(t.next_task_cont) << " done->"
       << unsigned(t.next_task_done) << (t.is_last ? " [last]" : "") << '\n';
  }
  for (unsigned i = 0; i < ctx_.loops.size(); ++i) {
    const LoopEntry& l = ctx_.loops[i];
    if (!l.valid) continue;
    os << "  loop " << i << ": init=" << l.initial << " final=" << l.final
       << " step=" << int(l.step) << " index_rf=" << isa::reg_name(l.index_rf)
       << " cond=" << unsigned(static_cast<std::uint8_t>(l.cond))
       << " current=" << ctx_.loop_current[i] << '\n';
  }
  if (ctx_.variant == ZolcVariant::kFull) {
    for (unsigned i = 0; i < ctx_.exits.size(); ++i) {
      const ExitRecord& r = ctx_.exits[i];
      if (!r.valid) continue;
      os << "  exit[" << i / geom.max_exits_per_loop << '.'
         << i % geom.max_exits_per_loop << "]: branch_ofs=" << r.branch_pc_ofs
         << " next_task=" << unsigned(r.next_task) << " reinit=0x" << std::hex
         << r.reinit_mask << std::dec
         << (r.deactivate ? " [deactivate]" : "") << '\n';
    }
    for (unsigned i = 0; i < ctx_.entries.size(); ++i) {
      const EntryRecord& r = ctx_.entries[i];
      if (!r.valid) continue;
      os << "  entry[" << i / geom.max_entries_per_loop << '.'
         << i % geom.max_entries_per_loop << "]: entry_ofs=" << r.entry_pc_ofs
         << " next_task=" << unsigned(r.next_task) << " reinit=0x" << std::hex
         << r.reinit_mask << std::dec << '\n';
    }
  }
  return os.str();
}

}  // namespace zolcsim::zolc
