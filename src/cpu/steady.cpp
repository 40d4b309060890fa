// The pipeline's steady-state skip (DESIGN.md 4.3): the run loops that
// watch ZOLC loop triggers on their way to MEM/WB, the qualification of a
// loop whose iterations repeat, and the skip itself -- k iterations
// charged as k times one measured iteration's PipelineStats, their
// architectural effect replayed on the ISS fast tier. Runs that cannot
// skip step through pipeline.cpp's loops, which hold none of this.
#include <algorithm>
#include <bit>
#include <limits>
#include <span>

#include "cpu/cycle.hpp"

namespace zolcsim::cpu {

namespace {

/// Every PipelineStats counter, for the skip's field-by-field arithmetic.
constexpr std::uint64_t PipelineStats::* kStatFields[] = {
    &PipelineStats::cycles,
    &PipelineStats::instructions,
    &PipelineStats::loads,
    &PipelineStats::stores,
    &PipelineStats::taken_control,
    &PipelineStats::control_flush_slots,
    &PipelineStats::load_use_stalls,
    &PipelineStats::interlock_stalls,
    &PipelineStats::raw_stalls,
    &PipelineStats::gate_stalls,
    &PipelineStats::zolc_fetch_events,
    &PipelineStats::zolc_rollbacks,
    &PipelineStats::zolc_resolution_events,
    &PipelineStats::zolc_init_instructions,
};
static_assert(sizeof(PipelineStats) ==
              std::size(kStatFields) * sizeof(std::uint64_t));

/// Low zero bits of `value`, capped at 2: all a data access's alignment
/// needs.
std::uint8_t low_zeros(std::int32_t value) {
  return static_cast<std::uint8_t>(
      std::min(2, std::countr_zero(static_cast<std::uint32_t>(value))));
}

std::uint8_t at_most_2(unsigned bits) {
  return static_cast<std::uint8_t>(std::min(2u, bits));
}

/// A lower bound on the low zero bits of what `op` writes, given bounds
/// `tz` on its sources'; 0 where none is known (a loaded value).
std::uint8_t result_low_zeros(const DecodedOp& op,
                              const std::array<std::uint8_t, 32>& tz) {
  const Instruction& ins = op.instr;
  const std::uint8_t a = tz[ins.rs];
  const std::uint8_t b = tz[ins.rt];
  const std::uint8_t imm = low_zeros(ins.imm);
  switch (op.kind) {
    case Kind::kAdd:
    case Kind::kMax:
      return std::min(a, b);
    case Kind::kAddi:
      return std::min(a, imm);
    case Kind::kSll:
      return at_most_2(b + ins.shamt);
    case Kind::kMul:
      return at_most_2(a + b);
    case Kind::kMac:
      return std::min(tz[op.dest], at_most_2(a + b));
    case Kind::kAlu:
      switch (ins.op) {
        case Opcode::kSub:
        case Opcode::kOr:
        case Opcode::kXor:
        case Opcode::kMin:
          return std::min(a, b);
        case Opcode::kAnd:
          return std::max(a, b);
        case Opcode::kSllv:
          return b;
        case Opcode::kAbs:
          return a;
        default:
          return 0;
      }
    case Kind::kAluImm:
      switch (ins.op) {
        case Opcode::kOri:
        case Opcode::kXori:
          return std::min(a, imm);
        case Opcode::kAndi:
          return std::max(a, imm);
        case Opcode::kLui:
          return 2;
        default:
          return 0;
      }
    default:
      return 0;
  }
}

/// Whether every load and store in `body` stays aligned however often, and
/// in whatever order, its records run from registers `regs`, while the
/// controller (dynamic state `accel`) writes loop indices of the forms
/// `program`'s loops can take. Skipped iterations then cannot fault.
bool accesses_stay_aligned(std::span<const DecodedOp> body,
                           const RegFile& regs,
                           const zolc::NestProgram& program,
                           const zolc::AccelSnapshot& accel) {
  std::array<std::uint8_t, 32> tz;
  for (unsigned r = 0; r < tz.size(); ++r) tz[r] = low_zeros(regs.read_raw(r));
  // An index is its current value or its initial one, plus steps.
  for (std::size_t l = 0; l < program.loops.size(); ++l) {
    const zolc::NestLoopDesc& loop = program.loops[l];
    if (!loop.valid) continue;
    std::uint8_t& t = tz[loop.index_rf];
    t = std::min({t, low_zeros(loop.initial), low_zeros(loop.step),
                  low_zeros(accel.loop_current[l])});
  }
  // A fixed point: a pass only lowers bounds, and they start at most 2.
  for (bool lowered = true; lowered;) {
    lowered = false;
    for (const DecodedOp& op : body) {
      if (op.dest == 0) continue;
      const std::uint8_t t = result_low_zeros(op, tz);
      if (t < tz[op.dest]) {
        tz[op.dest] = t;
        lowered = true;
      }
    }
  }
  for (const DecodedOp& op : body) {
    if (op.kind != Kind::kLoad && op.kind != Kind::kStore) continue;
    const unsigned need = op.width == 4 ? 2 : op.width == 2 ? 1 : 0;
    if (std::min(tz[op.instr.rs], low_zeros(op.instr.imm)) < need) {
      return false;
    }
  }
  return true;
}

/// One iteration of a loop that a trigger continues, worked out on the
/// controller's tables alone.
struct IterationPlan {
  std::uint64_t instructions = 0;
  std::uint64_t events = 0;
  std::uint8_t loop = 0;          ///< the loop whose continue ends it
  std::uint32_t event_writes = 0; ///< registers its events write
};

/// Follows the iteration that starts at `first` with the controller in
/// `start` and ends at the first event at `trigger`: straight-line runs of
/// PCs up to each task end, and the walk at each. nullopt unless it stays
/// in [first, trigger], its walks cannot fault, and it ends with exactly
/// the state it started from but for one loop L: the final event continues
/// L back to `first`, no other event touches L's index, and every other
/// loop ends where it started. Each later iteration then runs the same
/// events while L has back-edges left.
std::optional<IterationPlan> plan_iteration(const zolc::NestProgram& program,
                                            const zolc::AccelSnapshot& start,
                                            std::uint32_t first,
                                            std::uint32_t trigger) {
  // Bounds the work spent on a nest too large to be worth planning.
  constexpr std::uint64_t kMaxEvents = 1u << 16;
  if (program.loops.size() != start.loop_count) return std::nullopt;
  std::array<std::int32_t, zolc::kMaxGeometryLoops> current;
  std::copy_n(start.loop_current.begin(), start.loop_count, current.begin());
  std::uint8_t task = start.current_task;
  bool active = start.active;

  IterationPlan plan;
  std::array<std::uint64_t, 32> writes{};
  std::uint8_t last_reg = 0;
  const auto sink = [&](std::uint8_t reg, std::int32_t) {
    ++writes[reg];
    plan.event_writes |= 1u << reg;
    last_reg = reg;
  };
  std::uint32_t pc = first;
  for (;;) {
    if (!active || task >= program.tasks.size() ||
        plan.events == kMaxEvents) {
      return std::nullopt;
    }
    const zolc::NestTaskDesc& t = program.tasks[task];
    if (!t.valid || t.end_pc < pc || t.end_pc > trigger ||
        ((t.end_pc - pc) & 3) != 0) {
      return std::nullopt;
    }
    plan.instructions += (t.end_pc - pc) / 4 + 1;
    ++plan.events;
    const zolc::WalkOutcome walk = zolc::walk_fetch_event(
        program, current.data(), task, active, t.end_pc, sink);
    if (walk.fault != zolc::WalkFault::kNone) return std::nullopt;
    if (t.end_pc == trigger) {
      if (walk.redirect != first || walk.continues != 1 || !active ||
          task != start.current_task) {
        return std::nullopt;
      }
      break;
    }
    pc = walk.redirect.value_or(t.end_pc + 4);
    if (pc < first || pc > trigger) return std::nullopt;
  }

  // The continue wrote its loop's index last.
  unsigned owners = 0;
  for (std::size_t l = 0; l < program.loops.size(); ++l) {
    if (program.loops[l].valid && program.loops[l].index_rf == last_reg) {
      plan.loop = static_cast<std::uint8_t>(l);
      ++owners;
    }
  }
  if (owners != 1 || writes[last_reg] != 1) return std::nullopt;
  for (std::size_t l = 0; l < program.loops.size(); ++l) {
    if (l != plan.loop && current[l] != start.loop_current[l]) {
      return std::nullopt;
    }
  }
  return plan;
}

}  // namespace

void Pipeline::set_code_image(const DecodedImage& image) {
  image_ = &image;
  for (Moment& m : moments_) m.valid = false;
  scans_.clear();
  declined_ = {};
  iss_.reset();
}

void Pipeline::watch(std::uint32_t trigger, std::uint32_t target) {
  if (declined_[(trigger >> 2) % kDeclined] ==
      (std::uint64_t{trigger} << 32 | target)) {
    return;
  }
  watches_[(watch_head_ + watch_count_) % kWatches] =
      Watch{trigger, stats_.zolc_fetch_events, stats_.cycles};
  if (watch_count_++ == 0) {
    check_at_ = arrival(watches_[watch_head_]);
    stop_ = true;
  }
}

std::uint64_t Pipeline::arrival(const Watch& w) const {
  // Fetched in cycle `fetched`, a trigger reaches MEM/WB four cycles on at
  // the earliest; never look before the next cycle nor after the limit.
  return std::min(limit_at_, std::max(stats_.cycles + 1, w.fetched + 4));
}

void Pipeline::on_check() {
  check_at_ = limit_at_;
  const Latches& cur = latches_[cur_];
  while (watch_count_ != 0) {
    const Watch w = watches_[watch_head_];
    const auto holds = [&w](const auto& latch) {
      return latch.valid && latch.pc == w.trigger;
    };
    if (holds(cur.if_id) || holds(cur.id_ex) || holds(cur.ex_mem)) {
      check_at_ = arrival(w);  // on its way, perhaps held up by a stall
      return;
    }
    watch_head_ = static_cast<std::uint8_t>((watch_head_ + 1) % kWatches);
    --watch_count_;
    // A younger fetch that fired an event would leave the controller ahead
    // of the instruction boundary after the trigger.
    if (holds(cur.mem_wb) && stats_.zolc_fetch_events == w.events) {
      at_trigger(w.trigger);
      // A skip moves the clock: look at the next watch from here.
      if (watch_count_ != 0) check_at_ = arrival(watches_[watch_head_]);
      return;
    }
    // Otherwise it was squashed, or is retiring with a younger event in
    // flight; look at the next.
  }
}

void Pipeline::at_trigger(std::uint32_t trigger) {
  const Latches& cur = latches_[cur_];
  Moment now;
  now.valid = true;
  now.trigger = trigger;
  now.task = accel_->current_task();
  now.shape = {cur.if_id.valid ? cur.if_id.op : nullptr,
               cur.id_ex.valid ? cur.id_ex.op : nullptr,
               cur.ex_mem.valid ? cur.ex_mem.op : nullptr,
               cur.mem_wb.op};
  now.pc = pc_;
  now.stats = stats_;
  accel_->snapshot_into(now.accel);

  Moment* slot = nullptr;
  for (Moment& m : moments_) {
    if (m.valid && m.trigger == now.trigger && m.task == now.task) slot = &m;
  }
  if (slot == nullptr) {
    slot = &moments_[next_moment_];
    next_moment_ = static_cast<std::uint8_t>((next_moment_ + 1) % kMoments);
  } else if (slot->shape == now.shape && slot->pc == now.pc &&
             try_skip(*slot, now)) {
    // The loop's last iteration is next; its next run starts afresh.
    slot->valid = false;
    return;
  }
  *slot = now;
}

const Pipeline::BodyScan& Pipeline::scan_body(std::uint32_t start,
                                              std::uint32_t trigger) {
  for (const BodyScan& scan : scans_) {
    if (scan.start == start && scan.trigger == trigger) return scan;
  }
  BodyScan scan;
  scan.start = start;
  scan.trigger = trigger;
  scan.clean = start <= trigger && image_->covers(start) &&
               image_->covers(trigger);
  const std::uint32_t words = scan.clean ? (trigger - start) / 4 + 1 : 0;
  for (std::uint32_t i = 0; i < words && scan.clean; ++i) {
    const DecodedOp& op = image_->at(start + 4 * i);
    scan.clean = op.kind != Kind::kInvalid && !op.is_control() &&
                 op.kind != Kind::kZolc && op.kind != Kind::kHalt;
    if (op.dest != 0) scan.dests |= 1u << op.dest;
  }
  scans_.push_back(scan);
  return scans_.back();
}

bool Pipeline::try_skip(const Moment& prev, const Moment& now) {
  Latches& cur = latches_[cur_];
  // The instruction after the trigger in program order, the oldest one
  // behind it, opens the body.
  std::uint32_t first = pc_;
  if (cur.if_id.valid) first = cur.if_id.pc;
  if (cur.id_ex.valid) first = cur.id_ex.pc;
  if (cur.ex_mem.valid) first = cur.ex_mem.pc;
  const BodyScan& body = scan_body(first, now.trigger);
  if (!body.clean) {
    declined_[(now.trigger >> 2) % kDeclined] =
        std::uint64_t{now.trigger} << 32 | first;
    return false;
  }
  const zolc::NestProgram* program = accel_->nest_program();
  if (program == nullptr) return false;
  const std::optional<IterationPlan> plan =
      plan_iteration(*program, now.accel, first, now.trigger);
  if (!plan) return false;

  // The measured iteration must be one such iteration, one step of L
  // earlier: then it ran the same events from the same latch shape, and
  // every iteration until L's last costs what it cost.
  PipelineStats per;
  for (const auto field : kStatFields) {
    per.*field = now.stats.*field - prev.stats.*field;
  }
  const zolc::NestLoopDesc& loop = program->loops[plan->loop];
  zolc::AccelSnapshot stepped = prev.accel;
  stepped.loop_current[plan->loop] =
      wrap_add(stepped.loop_current[plan->loop], loop.step);
  if (per.cycles == 0 || per.instructions != plan->instructions ||
      per.zolc_fetch_events != plan->events || per.taken_control != 0 ||
      per.zolc_init_instructions != 0 || !(stepped == now.accel)) {
    return false;
  }
  // The pipeline commits a trigger's index writes before older results
  // reach write-back, the ISS after them: a body writing an index register
  // could tell the two apart. And a value a load in EX/MEM has not yet
  // fetched cannot be rebuilt for ID/EX (the load-use interlock keeps such a
  // pair apart anyway).
  if ((body.dests & plan->event_writes) != 0 ||
      (cur.ex_mem.valid && cur.ex_mem.is_load && cur.id_ex.valid &&
       writes_reg(cur.ex_mem.dest, cur.id_ex.op->srcs))) {
    return false;
  }
  const std::int64_t backedges = zolc::nest_remaining_backedges(
      now.accel.loop_current[plan->loop], loop.step, loop.final, loop.cond);
  // Charge no cycle past the limit, so that it traps where stepping would.
  const std::uint64_t k =
      std::min<std::uint64_t>(backedges > 0 ? backedges : 0,
                              (limit_at_ - stats_.cycles) / per.cycles);
  if (k == 0) return false;

  // Registers, memory and controller sit at the boundary after the
  // trigger, once its result is written back.
  RegFile regs = regs_;
  regs.write_raw(cur.mem_wb.dest, cur.mem_wb.value);
  if (!accesses_stay_aligned(
          std::span<const DecodedOp>(&image_->at(first),
                                     (now.trigger - first) / 4 + 1),
          regs, *program, now.accel)) {
    return false;
  }

  if (!iss_) {
    iss_.emplace(mem_);
    iss_->set_fast_path(true);
    iss_->set_code_image(*image_);
  }
  iss_->set_accelerator(accel_);
  iss_->regs() = regs;
  iss_->set_pc(first);
  // The last skipped trigger runs on its own: until it writes back, its
  // destination keeps the value from before it.
  const std::uint64_t instructions = k * per.instructions;
  std::uint64_t ran = iss_->run_slice(instructions - 1);
  const std::int32_t before_trigger = iss_->regs().read_raw(cur.mem_wb.dest);
  ran += iss_->run_slice(1);
  ZS_ASSERT(ran == instructions && iss_->pc() == first);
  const RegFile& after_trigger = iss_->regs();
  regs_ = after_trigger;
  regs_.write_raw(cur.mem_wb.dest, before_trigger);

  // The latches keep their shape; rebuild the values the younger ones
  // carry, in program order, from the registers after the last skipped
  // trigger.
  if (cur.mem_wb.dest != 0) {
    cur.mem_wb.value = after_trigger.read_raw(cur.mem_wb.dest);
  }
  const auto read = [&after_trigger](unsigned reg) {
    return after_trigger.read_raw(reg);
  };
  RegFile after = after_trigger;
  if (cur.ex_mem.valid) {
    ExMem& ex = cur.ex_mem;
    const DecodedOp& op = *ex.op;
    if (ex.is_load || ex.is_store) {
      ex.alu = static_cast<std::int32_t>(
          static_cast<std::uint32_t>(read(op.instr.rs)) +
          static_cast<std::uint32_t>(op.instr.imm));
      ex.store_val = read(op.instr.rt);
    } else {
      ex.alu = alu_kind_eval(op, read);
      after.write_raw(ex.dest, ex.alu);
    }
  }
  if (cur.id_ex.valid) {
    const Instruction& ins = cur.id_ex.op->instr;
    cur.id_ex.rs_val = after.read_raw(ins.rs);
    cur.id_ex.rt_val = after.read_raw(ins.rt);
    cur.id_ex.rd_val = after.read_raw(ins.rd);
  }

  for (const auto field : kStatFields) stats_.*field += k * per.*field;
  ++skip_stats_.engagements;
  skip_stats_.iterations += k;
  skip_stats_.cycles += k * per.cycles;
  return true;
}

template <PipelineConfig C>
std::uint64_t Pipeline::run_watching(std::uint64_t max_cycles) {
  const std::uint64_t start = stats_.cycles;
  limit_at_ = max_cycles > std::numeric_limits<std::uint64_t>::max() - start
                  ? std::numeric_limits<std::uint64_t>::max()
                  : start + max_cycles;
  check_at_ = limit_at_;
  watch_count_ = 0;
  stop_ = halted_;
  // The cycle path tests one flag and compares two registers, as the
  // stepping loop does: `stop_` reports a halt or a new watch, and `until`
  // is check_at_ counted from the start of this call.
  std::uint64_t consumed = 0;
  std::uint64_t until = max_cycles;
  for (;;) {
    if (stop_) [[unlikely]] {
      if (halted_) break;
      stop_ = false;
      until = check_at_ - start;
    }
    if (consumed >= until) [[unlikely]] {
      if (consumed >= max_cycles) {
        throw_cycle_limit(max_cycles, pc_);
      }
      on_check();  // a skip moves the clock
      consumed = stats_.cycles - start;
      until = check_at_ - start;
      continue;
    }
    cycle<C, true>();
    ++consumed;
  }
  return consumed;
}

std::uint64_t Pipeline::run_skipping(std::uint64_t max_cycles) {
  using R = BranchResolveStage;
  using S = SpeculationPolicy;
  using Loop = std::uint64_t (Pipeline::*)(std::uint64_t);
  // Indexed as run()'s table.
  static constexpr Loop kLoops[] = {
      &Pipeline::run_watching<PipelineConfig{R::kDecode, S::kRollback, false}>,
      &Pipeline::run_watching<PipelineConfig{R::kDecode, S::kRollback, true}>,
      &Pipeline::run_watching<PipelineConfig{R::kDecode, S::kGate, false}>,
      &Pipeline::run_watching<PipelineConfig{R::kDecode, S::kGate, true}>,
      &Pipeline::run_watching<PipelineConfig{R::kExecute, S::kRollback, false}>,
      &Pipeline::run_watching<PipelineConfig{R::kExecute, S::kRollback, true}>,
      &Pipeline::run_watching<PipelineConfig{R::kExecute, S::kGate, false}>,
      &Pipeline::run_watching<PipelineConfig{R::kExecute, S::kGate, true}>,
  };
  const std::size_t index =
      static_cast<std::size_t>(config_.branch_resolve) * 4 +
      static_cast<std::size_t>(config_.speculation) * 2 +
      (config_.forwarding ? 1 : 0);
  return (this->*kLoops[index])(max_cycles);
}

}  // namespace zolcsim::cpu
