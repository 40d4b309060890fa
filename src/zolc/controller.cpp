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

}  // namespace

ZolcController::ZolcController(ZolcVariant variant,
                               const ZolcGeometry& geometry)
    : variant_(variant),
      geom_(geometry.for_variant(variant)),
      pc_mask_(mask32(geom_.pc_ofs_bits)) {
  ZS_EXPECTS(geometry.valid());
  tasks_.resize(geom_.max_tasks);
  task_start_.resize(geom_.max_tasks);
  loops_.resize(geom_.max_loops);
  current_.resize(geom_.max_loops);
  exits_.resize(geom_.exit_record_count());
  entries_.resize(geom_.entry_record_count());
}

const TaskEntry& ZolcController::task(unsigned idx) const {
  ZS_EXPECTS(idx < tasks_.size());
  return tasks_[idx];
}

std::uint16_t ZolcController::task_start(unsigned idx) const {
  ZS_EXPECTS(idx < task_start_.size());
  return task_start_[idx];
}

const LoopEntry& ZolcController::loop(unsigned idx) const {
  ZS_EXPECTS(variant_ != ZolcVariant::kMicro && idx < loops_.size());
  return loops_[idx];
}

const ExitRecord& ZolcController::exit_record(unsigned idx) const {
  ZS_EXPECTS(variant_ == ZolcVariant::kFull && idx < exits_.size());
  return exits_[idx];
}

const EntryRecord& ZolcController::entry_record(unsigned idx) const {
  ZS_EXPECTS(variant_ == ZolcVariant::kFull && idx < entries_.size());
  return entries_[idx];
}

void ZolcController::reset() {
  std::fill(tasks_.begin(), tasks_.end(), TaskEntry{});
  std::fill(task_start_.begin(), task_start_.end(), std::uint16_t{0});
  std::fill(loops_.begin(), loops_.end(), LoopEntry{});
  std::fill(current_.begin(), current_.end(), 0);
  std::fill(exits_.begin(), exits_.end(), ExitRecord{});
  std::fill(entries_.begin(), entries_.end(), EntryRecord{});
  micro_ = {};
  base_ = 0;
  current_task_ = 0;
  active_ = false;
  stats_ = {};
  nest_dirty_ = true;
  refresh_trigger();
}

void ZolcController::refresh_trigger() noexcept {
  armed_pc_ = kDisarmed;
  if (!active_) return;
  if (variant_ == ZolcVariant::kMicro) {
    armed_pc_ = micro_.end_pc;
  } else if (!tasks_.empty() && tasks_[current_task_].valid) {
    armed_pc_ = ofs_to_pc(tasks_[current_task_].end_pc_ofs);
  }
}

void ZolcController::init_write(Opcode op, std::uint8_t idx,
                                std::uint32_t value) {
  if (active_) {
    throw SimError("ZOLC table write while the controller is active");
  }
  ++stats_.table_writes;
  nest_dirty_ = true;
  switch (op) {
    case Opcode::kZolwTe: {
      if (variant_ == ZolcVariant::kMicro || idx >= tasks_.size()) {
        throw SimError("zolw.te: no task entry " + std::to_string(idx) +
                       " on " + std::string(variant_name(variant_)));
      }
      // Range-check the packed ids: the field widths are rounded up to
      // whole bits, so non-power-of-two geometries admit encodings beyond
      // the table sizes (the hardware write decoder traps them).
      const TaskEntry entry = TaskEntry::unpack(value, geom_);
      if (entry.loop_id >= geom_.max_loops ||
          entry.next_task_cont >= geom_.max_tasks ||
          entry.next_task_done >= geom_.max_tasks) {
        throw SimError("zolw.te: packed id out of range for geometry " +
                       geom_.label());
      }
      tasks_[idx] = entry;
      break;
    }
    case Opcode::kZolwTs:
      if (variant_ == ZolcVariant::kMicro || idx >= tasks_.size()) {
        throw SimError("zolw.ts: no task entry " + std::to_string(idx) +
                       " on " + std::string(variant_name(variant_)));
      }
      task_start_[idx] =
          static_cast<std::uint16_t>(value & mask32(geom_.pc_ofs_bits));
      break;
    case Opcode::kZolwLp0:
    case Opcode::kZolwLp1:
      if (variant_ == ZolcVariant::kMicro || idx >= loops_.size()) {
        throw SimError("zolw.lp: no loop entry " + std::to_string(idx) +
                       " on " + std::string(variant_name(variant_)));
      }
      if (op == Opcode::kZolwLp0) loops_[idx].unpack_word0(value);
      else loops_[idx].unpack_word1(value);
      break;
    case Opcode::kZolwEx0:
    case Opcode::kZolwEx1:
      if (variant_ != ZolcVariant::kFull || idx >= exits_.size()) {
        throw SimError("zolw.ex: no exit record " + std::to_string(idx) +
                       " on " + std::string(variant_name(variant_)));
      }
      if (op == Opcode::kZolwEx0) exits_[idx].unpack_lo(value, geom_);
      else exits_[idx].unpack_hi(value, geom_);
      if (exits_[idx].next_task >= geom_.max_tasks) {
        throw SimError("zolw.ex: packed next_task out of range for geometry " +
                       geom_.label());
      }
      break;
    case Opcode::kZolwEn0:
    case Opcode::kZolwEn1:
      if (variant_ != ZolcVariant::kFull || idx >= entries_.size()) {
        throw SimError("zolw.en: no entry record " + std::to_string(idx) +
                       " on " + std::string(variant_name(variant_)));
      }
      if (op == Opcode::kZolwEn0) entries_[idx].unpack_lo(value, geom_);
      else entries_[idx].unpack_hi(value, geom_);
      if (entries_[idx].next_task >= geom_.max_tasks) {
        throw SimError("zolw.en: packed next_task out of range for geometry " +
                       geom_.label());
      }
      break;
    case Opcode::kZolwU: {
      if (variant_ != ZolcVariant::kMicro || idx >= kMicroRegCount) {
        throw SimError("zolw.u: no uZOLC register " + std::to_string(idx) +
                       " on " + std::string(variant_name(variant_)));
      }
      const auto sv = static_cast<std::int32_t>(value);
      switch (static_cast<MicroReg>(idx)) {
        case MicroReg::kInitial: micro_.initial = sv; break;
        case MicroReg::kFinal:   micro_.final = sv; break;
        case MicroReg::kStep:    micro_.step = sv; break;
        case MicroReg::kCurrent: current_[0] = sv; break;
        case MicroReg::kStartPc: micro_.start_pc = value; break;
        case MicroReg::kEndPc:   micro_.end_pc = value; break;
        case MicroReg::kCtrl:
          micro_.index_rf = static_cast<std::uint8_t>(extract_bits(value, 0, 5));
          micro_.cond = static_cast<LoopCond>(extract_bits(value, 5, 2));
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
  if (active_) {
    throw SimError("zolon while the controller is already active");
  }
  if (variant_ == ZolcVariant::kMicro) {
    current_[0] = micro_.initial;
    active_ = true;
    refresh_trigger();
    return;
  }
  if (start_task >= tasks_.size()) {
    throw SimError("zolon: start task " + std::to_string(start_task) +
                   " out of range");
  }
  if (!is_aligned(base, 4)) {
    throw SimError("zolon: base address " + hex32(base) +
                   " is not word-aligned");
  }
  base_ = base;
  nest_dirty_ = true;  // the export resolves table offsets against base_
  current_task_ = start_task;
  for (unsigned i = 0; i < loops_.size(); ++i) {
    if (loops_[i].valid) current_[i] = loops_[i].initial;
  }
  active_ = true;
  refresh_trigger();
}

void ZolcController::deactivate() {
  active_ = false;
  refresh_trigger();
}

bool ZolcController::pc_to_ofs(std::uint32_t pc, std::uint16_t& ofs) const {
  const std::uint32_t delta = (pc - base_) >> 2;  // modulo 2^32, as ofs_to_pc
  if (delta > pc_mask_) return false;
  ofs = static_cast<std::uint16_t>(delta);
  return true;
}

std::uint32_t ZolcController::ofs_to_pc(std::uint16_t ofs) const noexcept {
  return base_ + (static_cast<std::uint32_t>(ofs) << 2);
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

std::optional<AccelEvent> ZolcController::on_fetch(std::uint32_t pc) {
  // Every path returns `out`, so the event is built in the caller's slot.
  std::optional<AccelEvent> out;
  if (!will_trigger(pc)) return out;
  AccelEvent& ev = out.emplace();
  const WalkOutcome walk =
      walk_event(pc, [&ev](std::uint8_t reg, std::int32_t value) {
        ev.rf_writes.push_back(RfWrite{reg, value});
      });
  ev.redirect = walk.redirect;
  ev.fault = walk.fault;
  ev.fault_task = current_task_;
  return out;
}

void ZolcController::apply_reinit_mask(std::uint32_t mask, AccelEvent& ev) {
  for (unsigned i = 0; i < geom_.max_loops; ++i) {
    if ((mask & (1u << i)) == 0) continue;
    const LoopEntry& loop = loops_[i];
    if (!loop.valid) {
      throw SimError("reinit mask references invalid loop " +
                     std::to_string(i));
    }
    current_[i] = loop.initial;
    ev.rf_writes.push_back(RfWrite{loop.index_rf, loop.initial});
  }
}

std::optional<AccelEvent> ZolcController::on_taken_control(
    std::uint32_t pc, std::uint32_t target) {
  if (!active_ || variant_ != ZolcVariant::kFull) return std::nullopt;

  AccelEvent ev;
  bool matched = false;

  // Candidate exits, scoped to the current task's controlling loop (the
  // hardware compares only that loop's bank of records).
  const TaskEntry& t = tasks_[current_task_];
  std::uint16_t ofs = 0;
  if (t.valid && pc_to_ofs(pc, ofs)) {
    const unsigned bank = t.loop_id * geom_.max_exits_per_loop;
    for (unsigned slot = 0; slot < geom_.max_exits_per_loop; ++slot) {
      const ExitRecord& r = exits_[bank + slot];
      if (!r.valid || r.branch_pc_ofs != ofs) continue;
      matched = true;
      ++stats_.exit_matches;
      apply_reinit_mask(r.reinit_mask, ev);
      current_task_ = r.next_task;
      if (r.deactivate) active_ = false;
      break;
    }
  }

  // Multi-entry records, matched on the transfer target.
  std::uint16_t tofs = 0;
  if (active_ && pc_to_ofs(target, tofs)) {
    for (const EntryRecord& r : entries_) {
      if (!r.valid || r.entry_pc_ofs != tofs) continue;
      matched = true;
      ++stats_.entry_matches;
      apply_reinit_mask(r.reinit_mask, ev);
      current_task_ = r.next_task;
      break;
    }
  }

  if (!matched) return std::nullopt;
  refresh_trigger();
  return ev;
}

AccelSnapshot ZolcController::snapshot() const {
  AccelSnapshot s;
  s.loop_count = static_cast<std::uint8_t>(current_.size());
  std::copy(current_.begin(), current_.end(), s.loop_current.begin());
  s.current_task = current_task_;
  s.active = active_;
  return s;
}

const NestProgram* ZolcController::nest_program() const {
  if (!active_) return nullptr;
  if (!nest_dirty_) return &nest_prog_;
  if (variant_ == ZolcVariant::kMicro) {
    // One task over the micro registers' region. Its done event
    // re-initializes the index and falls through, leaving the controller
    // armed for a re-entry by an enclosing software loop.
    NestTaskDesc task;
    task.start_pc = micro_.start_pc;
    task.end_pc = micro_.end_pc;
    task.done_falls_through = true;
    task.valid = true;
    nest_prog_.tasks.assign(1, task);
    nest_prog_.loops.assign(1, nest_loop(micro_));
  } else {
    nest_prog_.loops.assign(loops_.size(), NestLoopDesc{});
    nest_prog_.tasks.assign(tasks_.size(), NestTaskDesc{});
    for (unsigned i = 0; i < loops_.size(); ++i) {
      if (!loops_[i].valid) continue;
      NestLoopDesc& d = nest_prog_.loops[i];
      d = nest_loop(loops_[i]);
      if (variant_ == ZolcVariant::kFull) {
        const unsigned bank = i * geom_.max_exits_per_loop;
        for (unsigned slot = 0; slot < geom_.max_exits_per_loop; ++slot) {
          if (exits_[bank + slot].valid) {
            d.has_exit_records = true;
            break;
          }
        }
      }
    }
    for (unsigned i = 0; i < tasks_.size(); ++i) {
      const TaskEntry& t = tasks_[i];
      NestTaskDesc& d = nest_prog_.tasks[i];
      // start_pc resolves for every entry: the event walk redirects to a
      // successor's start without a validity check.
      d.start_pc = ofs_to_pc(task_start_[i]);
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
  stats_.continue_events += continues;
  stats_.done_events += dones;
  stats_.cascade_chains += cascades;
  stats_.max_cascade_depth =
      std::max(stats_.max_cascade_depth, max_cascade_depth);
}

void ZolcController::restore(const AccelSnapshot& snapshot) {
  if (auto restored = try_restore(snapshot); !restored.ok()) {
    throw SimError(restored.error().to_string());
  }
}

Result<void> ZolcController::try_restore(const AccelSnapshot& snapshot) {
  if (snapshot.loop_count != current_.size()) {
    return Error{ErrorCode::kBadContext,
                 "snapshot carries " + std::to_string(snapshot.loop_count) +
                     " loops, geometry " + geom_.label() + " has " +
                     std::to_string(current_.size())};
  }
  std::copy_n(snapshot.loop_current.begin(), current_.size(), current_.begin());
  current_task_ = snapshot.current_task;
  active_ = snapshot.active;
  refresh_trigger();
  return {};
}

ZolcContext ZolcController::save_context() const {
  ZolcContext ctx;
  ctx.variant = variant_;
  ctx.geometry = geom_;
  ctx.tasks = tasks_;
  ctx.task_start = task_start_;
  ctx.loops = loops_;
  ctx.loop_current = current_;
  ctx.exits = exits_;
  ctx.entries = entries_;
  ctx.micro = micro_;
  ctx.base = base_;
  ctx.current_task = current_task_;
  ctx.active = active_;
  ctx.stats = stats_;
  return ctx;
}

Result<void> ZolcController::restore_context(const ZolcContext& context) {
  if (context.variant != variant_ || !(context.geometry == geom_)) {
    return Error{ErrorCode::kBadContext,
                 "context for " + std::string(variant_name(context.variant)) +
                     "/" + context.geometry.label() + " cannot restore onto " +
                     std::string(variant_name(variant_)) + "/" + geom_.label()};
  }
  if (context.tasks.size() != tasks_.size() ||
      context.task_start.size() != task_start_.size() ||
      context.loops.size() != loops_.size() ||
      context.loop_current.size() != current_.size() ||
      context.exits.size() != exits_.size() ||
      context.entries.size() != entries_.size()) {
    return Error{ErrorCode::kBadContext,
                 "context table sizes do not match geometry " + geom_.label()};
  }
  tasks_ = context.tasks;
  task_start_ = context.task_start;
  loops_ = context.loops;
  current_ = context.loop_current;
  exits_ = context.exits;
  entries_ = context.entries;
  micro_ = context.micro;
  base_ = context.base;
  current_task_ = context.current_task;
  active_ = context.active;
  stats_ = context.stats;
  nest_dirty_ = true;  // the export resolves table offsets against base_
  refresh_trigger();
  return {};
}

std::string ZolcController::describe() const {
  std::ostringstream os;
  os << "ZOLC variant: " << variant_name(variant_)
     << (active_ ? " [active, task " + std::to_string(current_task_) + "]"
                 : " [inactive]")
     << '\n';
  if (variant_ == ZolcVariant::kMicro) {
    os << "  loop: initial=" << micro_.initial << " final=" << micro_.final
       << " step=" << micro_.step << " current=" << current_[0]
       << " index_rf=" << isa::reg_name(micro_.index_rf)
       << " start=" << hex32(micro_.start_pc) << " end=" << hex32(micro_.end_pc)
       << '\n';
    return os.str();
  }
  os << "  geometry: " << geom_.label() << '\n';
  os << "  base: " << hex32(base_) << '\n';
  for (unsigned i = 0; i < tasks_.size(); ++i) {
    const TaskEntry& t = tasks_[i];
    if (!t.valid) continue;
    os << "  task " << i << ": start_ofs=" << task_start_[i]
       << " end_ofs=" << t.end_pc_ofs << " loop=" << unsigned(t.loop_id)
       << " cont->" << unsigned(t.next_task_cont) << " done->"
       << unsigned(t.next_task_done) << (t.is_last ? " [last]" : "") << '\n';
  }
  for (unsigned i = 0; i < loops_.size(); ++i) {
    const LoopEntry& l = loops_[i];
    if (!l.valid) continue;
    os << "  loop " << i << ": init=" << l.initial << " final=" << l.final
       << " step=" << int(l.step) << " index_rf=" << isa::reg_name(l.index_rf)
       << " cond=" << unsigned(static_cast<std::uint8_t>(l.cond))
       << " current=" << current_[i] << '\n';
  }
  if (variant_ == ZolcVariant::kFull) {
    for (unsigned i = 0; i < exits_.size(); ++i) {
      const ExitRecord& r = exits_[i];
      if (!r.valid) continue;
      os << "  exit[" << i / geom_.max_exits_per_loop << '.'
         << i % geom_.max_exits_per_loop << "]: branch_ofs=" << r.branch_pc_ofs
         << " next_task=" << unsigned(r.next_task) << " reinit=0x" << std::hex
         << r.reinit_mask << std::dec
         << (r.deactivate ? " [deactivate]" : "") << '\n';
    }
    for (unsigned i = 0; i < entries_.size(); ++i) {
      const EntryRecord& r = entries_[i];
      if (!r.valid) continue;
      os << "  entry[" << i / geom_.max_entries_per_loop << '.'
         << i % geom_.max_entries_per_loop << "]: entry_ofs=" << r.entry_pc_ofs
         << " next_task=" << unsigned(r.next_task) << " reinit=0x" << std::hex
         << r.reinit_mask << std::dec << '\n';
    }
  }
  return os.str();
}

}  // namespace zolcsim::zolc
