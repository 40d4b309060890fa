// The pipeline's cycle model: the stage helpers, fetch and the cycle
// itself, as templates on the configuration. Two units compile run loops
// from it: pipeline.cpp the loops that step every cycle, steady.cpp the
// ones that also watch ZOLC loop triggers for steady states (kSkip). Each
// unit thus instantiates the cycle apart, and the stepping loops compile
// as they would with no skip at all. Internal to those two units.
#ifndef ZOLCSIM_CPU_CYCLE_HPP
#define ZOLCSIM_CPU_CYCLE_HPP

#include <string>

#include "common/strings.hpp"
#include "cpu/pipeline.hpp"

namespace zolcsim::cpu {

// Internal linkage: each including unit keeps its own copies, as it would
// keep helpers of its own.
namespace {

using isa::Instruction;
using isa::Opcode;
using Kind = DecodedOp::Kind;

/// True iff `dest` (0: none) is one of `srcs`. The slots past srcs.count
/// hold register 0, which no dest matches, so all three compare without a
/// loop or a branch.
bool writes_reg(std::uint8_t dest, const isa::SourceRegs& srcs) {
  const std::uint8_t* r = srcs.regs.data();
  return dest != 0 && ((r[0] == dest) | (r[1] == dest) | (r[2] == dest));
}

// The cycle loop's traps, out of line so that their message building stays
// out of the loop's code.

[[noreturn, gnu::cold, gnu::noinline]] void throw_illegal(std::uint32_t pc) {
  throw SimError("illegal instruction at " + hex32(pc));
}

[[noreturn, gnu::cold, gnu::noinline]] void throw_no_accelerator(
    std::uint32_t pc) {
  throw SimError("ZOLC instruction at " + hex32(pc) +
                 " with no loop accelerator attached");
}

[[noreturn, gnu::cold, gnu::noinline]] void throw_cycle_limit(
    std::uint64_t max_cycles, std::uint32_t pc) {
  throw SimError("pipeline cycle limit (" + std::to_string(max_cycles) +
                 ") exceeded at pc " + hex32(pc));
}

}  // namespace

template <PipelineConfig C>
std::int32_t Pipeline::forward_to_ex(const Latches& cur, std::uint8_t reg,
                                     std::int32_t id_value) const {
  if (!C.forwarding || reg == 0) return id_value;
  // Youngest producer wins: EX/MEM latch first, then MEM/WB.
  if (cur.ex_mem.valid && cur.ex_mem.dest == reg && !cur.ex_mem.is_load) {
    return cur.ex_mem.alu;
  }
  if (cur.mem_wb.valid && cur.mem_wb.dest == reg) return cur.mem_wb.value;
  return id_value;
}

template <PipelineConfig C>
std::int32_t Pipeline::read_in_id(const Latches& cur, std::uint8_t reg) const {
  // The register file was already updated by this cycle's WB (write-before-
  // read). The only in-flight value visible to ID is the previous EX result.
  if (C.forwarding && reg != 0 && cur.ex_mem.valid &&
      cur.ex_mem.dest == reg && !cur.ex_mem.is_load) {
    return cur.ex_mem.alu;
  }
  return regs_.read_raw(reg);
}

template <PipelineConfig C>
bool Pipeline::control_in_flight(const Latches& cur) const {
  // Invalid instructions are not control transfers.
  if (cur.if_id.valid && cur.if_id.op->is_control()) return true;
  return C.branch_resolve == BranchResolveStage::kExecute &&
         cur.id_ex.valid && cur.id_ex.op->is_control();
}

template <bool kSkip>
[[gnu::always_inline]] inline std::uint32_t Pipeline::fetch(const Latches& cur,
                                                            IfId& ifi) {
  ifi.valid = true;
  ifi.pc = pc_;
  if (image_ != nullptr && image_->covers(pc_)) {
    ifi.op = &image_->at(pc_);
  } else {
    DecodedOp& slot = decoded_[next_decoded_];
    next_decoded_ =
        static_cast<std::uint8_t>((next_decoded_ + 1) % kDecodedSlots);
    slot = decode_op(isa::decode(mem_.fetch32(pc_)));
    ifi.op = &slot;
  }
  ifi.event = kNoEvent;
  if (accel_ == nullptr || !accel_->will_trigger(pc_)) return pc_ + 4;

  // Round robin is safe: IF/ID and ID/EX hold at most the two most recent
  // events, so the slot three events back is free. The event is built in
  // the slot, over the one it held before.
  const auto slot = static_cast<std::int8_t>(next_event_);
  next_event_ = static_cast<std::uint8_t>((next_event_ + 1) % kEventSlots);
  ZS_ASSERT(!(cur.if_id.valid && cur.if_id.event == slot) &&
            !(cur.id_ex.valid && cur.id_ex.event == slot));
  FetchInfo& fi = events_[static_cast<std::size_t>(slot)];
  accel_->snapshot_into(fi.before);
  accel_->on_fetch(pc_, fi.event);
  ifi.event = slot;
  ++stats_.zolc_fetch_events;
  if constexpr (kSkip) {
    if (watch_count_ < kWatches && fi.event.redirect) {
      watch(pc_, *fi.event.redirect);
    }
  }
  return fi.event.redirect.value_or(pc_ + 4);
}

template <PipelineConfig C, bool kSkip>
[[gnu::always_inline]] inline void Pipeline::cycle() {
  // Every stage reads `cur` and writes its output fields straight into
  // `next`; a latch left with valid == false is a bubble.
  const Latches& cur = latches_[cur_];
  Latches& next = latches_[cur_ ^ 1];
  next.if_id.valid = false;
  next.id_ex.valid = false;
  next.ex_mem.valid = false;
  next.mem_wb.valid = false;

  // Redirect bookkeeping for this cycle.
  bool redirect = false;
  std::uint32_t redirect_target = 0;
  std::uint32_t resolved_pc = 0;
  bool redirect_from_ex = false;
  // Oldest accel snapshot to restore on a wrong-path rollback.
  const zolc::AccelSnapshot* rollback_to = nullptr;

  // ---------------- WB ----------------
  if (cur.mem_wb.valid) {
    const DecodedOp& op = *cur.mem_wb.op;
    // Commit-time illegal-instruction trap: wrong-path garbage never gets
    // here (squashed at resolution), correct-path garbage traps precisely.
    if (op.kind == Kind::kInvalid) {
      throw_illegal(cur.mem_wb.pc);
    }
    regs_.write_raw(cur.mem_wb.dest, cur.mem_wb.value);
    ++stats_.instructions;
    if (retire_hook_) retire_hook_(cur.mem_wb.pc, op.instr);
    if (op.kind == Kind::kZolc) ++stats_.zolc_init_instructions;
    if (op.kind == Kind::kHalt) {
      halted_ = true;
      if constexpr (kSkip) stop_ = true;
    }
  }

  // ---------------- MEM ----------------
  if (cur.ex_mem.valid) {
    MemWb& wb = next.mem_wb;
    wb.valid = true;
    wb.dest = cur.ex_mem.dest;
    wb.pc = cur.ex_mem.pc;
    wb.op = cur.ex_mem.op;
    wb.value = cur.ex_mem.alu;
    if (cur.ex_mem.is_load) {
      wb.value = mem_load(cur.ex_mem.op->instr.op, mem_,
                          static_cast<std::uint32_t>(cur.ex_mem.alu));
      ++stats_.loads;
    } else if (cur.ex_mem.is_store) {
      mem_store(cur.ex_mem.op->instr.op, mem_,
                static_cast<std::uint32_t>(cur.ex_mem.alu),
                cur.ex_mem.store_val);
      ++stats_.stores;
    }
  }

  // ---------------- EX ----------------
  // An invalid instruction passes through inertly (kind kInvalid: no
  // destination, no memory access, no fetch event); it traps at WB.
  if (cur.id_ex.valid) {
    const DecodedOp& op = *cur.id_ex.op;
    const Instruction& instr = op.instr;

    const std::int32_t a = forward_to_ex<C>(cur, instr.rs, cur.id_ex.rs_val);
    const std::int32_t rt_fwd =
        forward_to_ex<C>(cur, instr.rt, cur.id_ex.rt_val);
    const std::int32_t acc = forward_to_ex<C>(cur, instr.rd, cur.id_ex.rd_val);

    ExMem& ex = next.ex_mem;
    ex.valid = true;
    ex.is_load = op.kind == Kind::kLoad;
    ex.is_store = op.kind == Kind::kStore;
    ex.dest = op.dest;
    ex.pc = cur.id_ex.pc;
    ex.op = &op;
    ex.alu = 0;

    // The forwarded operands by register: equal register numbers carry
    // equal values, so the first match is the right one.
    const auto read = [&instr, a, rt_fwd, acc](unsigned reg) {
      return reg == instr.rs ? a : reg == instr.rt ? rt_fwd : acc;
    };
    // Control flow resolves here under EX resolution; under kDecode it was
    // already resolved in ID and the latch carries no live branch work.
    constexpr bool kResolveHere =
        C.branch_resolve == BranchResolveStage::kExecute;
    ControlOutcome control;
    // One label per ALU kind: the kind is then known in each case, and
    // alu_kind_eval's own switch folds away.
    switch (op.kind) {
      case Kind::kAlu:
        ex.alu = alu_kind_eval(op, read);
        break;
      case Kind::kAdd:
        ex.alu = alu_kind_eval(op, read);
        break;
      case Kind::kMac:
        ex.alu = alu_kind_eval(op, read);
        break;
      case Kind::kMax:
        ex.alu = alu_kind_eval(op, read);
        break;
      case Kind::kSll:
        ex.alu = alu_kind_eval(op, read);
        break;
      case Kind::kMul:
        ex.alu = alu_kind_eval(op, read);
        break;
      case Kind::kAluImm:
        ex.alu = alu_kind_eval(op, read);
        break;
      case Kind::kAddi:
        ex.alu = alu_kind_eval(op, read);
        break;
      case Kind::kLoad:
      case Kind::kStore:
        ex.alu =
            static_cast<std::int32_t>(static_cast<std::uint32_t>(a) +
                                      static_cast<std::uint32_t>(instr.imm));
        ex.store_val = rt_fwd;
        break;
      case Kind::kBranch:
        if constexpr (kResolveHere) {
          control = resolve_control(op, cur.id_ex.pc, a, rt_fwd);
        }
        if (instr.op == Opcode::kDbne) ex.alu = wrap_sub(a, 1);
        break;
      case Kind::kJump:
      case Kind::kJumpReg:
        if constexpr (kResolveHere) {
          control = resolve_control(op, cur.id_ex.pc, a, rt_fwd);
        }
        // The link value for jal / jalr; j and jr have no destination.
        ex.alu = static_cast<std::int32_t>(cur.id_ex.pc + 4);
        break;
      case Kind::kZolc:  // after the fetch event, below
      case Kind::kHalt:
      case Kind::kInvalid:
        break;
    }

    // Commit this instruction's fetch-time ZOLC write-backs now that it is
    // entering EX (non-speculative) -- unless it is itself a taken control
    // transfer, in which case the fetch-time speculation was wrong-path. A
    // walk fault raises here, taken or not, as it does on the ISS.
    if (cur.id_ex.event != kNoEvent) {
      const FetchInfo& fi = event_at(cur.id_ex.event);
      if (fi.event.fault != zolc::WalkFault::kNone) {
        accel_->raise_walk_fault(fi.event.fault, fi.event.fault_task,
                                 cur.id_ex.pc);
      }
      if (control.taken) {
        rollback_to = &fi.before;
      } else {
        for (const zolc::RfWrite& w : fi.event.rf_writes) {
          regs_.write(w.reg, w.value);
        }
      }
    }

    if (control.taken) {
      redirect = true;
      redirect_from_ex = true;
      redirect_target = control.target;
      resolved_pc = cur.id_ex.pc;
      ++stats_.taken_control;
    }

    // A ZOLC instruction acts on the controller after its own fetch event.
    if (op.kind == Kind::kZolc) {
      if (accel_ == nullptr) {
        throw_no_accelerator(cur.id_ex.pc);
      }
      if (instr.op == Opcode::kZolOn) {
        accel_->activate(instr.zidx, static_cast<std::uint32_t>(a));
      } else if (instr.op == Opcode::kZolOff) {
        accel_->deactivate();
      } else {
        accel_->init_write(instr.op, instr.zidx,
                           static_cast<std::uint32_t>(a));
      }
    }
  }

  // ---------------- ID ----------------
  // Skip decode entirely when the EX stage redirected this cycle: the
  // instruction in ID is wrong-path and is squashed below.
  bool stall = false;
  if (cur.if_id.valid && !redirect_from_ex) {
    // An invalid instruction passes through inertly (it traps at WB if it
    // ever retires): it has no sources and no destination, so it takes part
    // in no hazards.
    const DecodedOp& op = *cur.if_id.op;
    const bool ex_valid = cur.id_ex.valid;
    if constexpr (C.forwarding) {
      // Load-use interlock: producer load currently in EX.
      if (ex_valid && cur.id_ex.op->kind == Kind::kLoad &&
          writes_reg(cur.id_ex.op->dest, op.srcs)) {
        stall = true;
        ++stats_.load_use_stalls;
      }
      // ID-resolution interlocks: branch operands must be available in ID.
      if (!stall && C.branch_resolve == BranchResolveStage::kDecode &&
          op.is_control()) {
        const bool ex_hazard =
            ex_valid && writes_reg(cur.id_ex.op->dest, op.srcs);
        const bool mem_load_hazard = cur.ex_mem.valid && cur.ex_mem.is_load &&
                                     writes_reg(cur.ex_mem.dest, op.srcs);
        if (ex_hazard || mem_load_hazard) {
          stall = true;
          ++stats_.interlock_stalls;
        }
      }
    } else {
      // No forwarding: wait until every producer has written back.
      const bool hazard =
          (ex_valid && writes_reg(cur.id_ex.op->dest, op.srcs)) ||
          (cur.ex_mem.valid && writes_reg(cur.ex_mem.dest, op.srcs));
      if (hazard) {
        stall = true;
        ++stats_.raw_stalls;
      }
    }

    if (stall) {
      next.if_id = cur.if_id;  // hold
    } else {
      const Instruction& instr = op.instr;
      IdEx& id = next.id_ex;
      id.valid = true;
      // An invalid instruction's fetch event is dropped: it never commits
      // its write-backs and is never rolled back from ID/EX.
      id.event = op.kind != Kind::kInvalid ? cur.if_id.event : kNoEvent;
      id.pc = cur.if_id.pc;
      id.op = &op;
      id.rs_val = read_in_id<C>(cur, instr.rs);
      id.rt_val = read_in_id<C>(cur, instr.rt);
      id.rd_val = read_in_id<C>(cur, instr.rd);

      // Early (decode-stage) control resolution.
      if (C.branch_resolve == BranchResolveStage::kDecode &&
          op.is_control()) {
        const ControlOutcome control =
            resolve_control(op, id.pc, id.rs_val, id.rt_val);
        if (control.taken) {
          redirect = true;
          redirect_target = control.target;
          resolved_pc = id.pc;
          ++stats_.taken_control;
          // This branch's own fetch-time event was fall-through speculation:
          // cancel it (write-backs never applied) and remember the rollback.
          // A faulting event stays with the branch, which raises it in EX.
          if (id.event != kNoEvent) {
            if (rollback_to == nullptr) {
              rollback_to = &event_at(id.event).before;
            }
            if (event_at(id.event).event.fault == zolc::WalkFault::kNone) {
              id.event = kNoEvent;
            }
          }
        }
      }
    }
  }

  // ---------------- IF ----------------
  std::uint32_t next_pc = pc_;
  if (!stall) {
    const bool gate = C.speculation == SpeculationPolicy::kGate &&
                      accel_ != nullptr && accel_->will_trigger(pc_) &&
                      control_in_flight<C>(cur);
    if (gate) {
      ++stats_.gate_stalls;
    } else {
      next_pc = fetch<kSkip>(cur, next.if_id);
    }
  }

  // ------------- redirect / squash -------------
  if (redirect) {
    // Determine the oldest wrong-path ZOLC event and restore its snapshot.
    // Priority (oldest first): the branch's own event (already captured in
    // rollback_to), then the squashed IF/ID instruction (EX resolution
    // only), then this cycle's squashed fetch. (IF/ID also turns valid when
    // ID stalls, but a stall never coincides with a redirect.)
    if (rollback_to == nullptr && redirect_from_ex && cur.if_id.valid &&
        cur.if_id.event != kNoEvent) {
      rollback_to = &event_at(cur.if_id.event).before;
    }
    if (rollback_to == nullptr && next.if_id.valid &&
        next.if_id.event != kNoEvent) {
      rollback_to = &event_at(next.if_id.event).before;
    }
    if (rollback_to != nullptr) {
      ZS_ASSERT(accel_ != nullptr);
      accel_->restore(*rollback_to);
      ++stats_.zolc_rollbacks;
    }
    // Resolution-time ZOLC hook (candidate exits / entries).
    if (accel_ != nullptr) {
      if (auto resolution = accel_->on_taken_control(resolved_pc,
                                                     redirect_target)) {
        ++stats_.zolc_resolution_events;
        for (const zolc::RfWrite& w : resolution->rf_writes) {
          regs_.write(w.reg, w.value);
        }
      }
    }
    // Squash wrong-path slots (this cycle's fetch, plus -- for EX
    // resolution -- the instruction that was in ID, which the ID stage
    // already left out of ID/EX).
    if (next.if_id.valid) ++stats_.control_flush_slots;
    next.if_id.valid = false;
    if (redirect_from_ex && cur.if_id.valid) ++stats_.control_flush_slots;
    next_pc = redirect_target;
  }

  cur_ ^= 1;
  pc_ = next_pc;
  ++stats_.cycles;
}

}  // namespace zolcsim::cpu

#endif  // ZOLCSIM_CPU_CYCLE_HPP
