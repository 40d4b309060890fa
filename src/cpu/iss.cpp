#include "cpu/iss.hpp"

#include "common/strings.hpp"

namespace zolcsim::cpu {

namespace {

using isa::Instruction;
using isa::Opcode;
using Kind = DecodedOp::Kind;

}  // namespace

void Iss::step() {
  if (halted_) return;
  fetch_redirected_ = false;

  // Fetch: by reference into the decoded image; outside the image, decode
  // from memory.
  const DecodedOp* fetched = nullptr;
  DecodedOp decoded;
  if (image_ != nullptr && image_->covers(pc_)) {
    fetched = &image_->at(pc_);
  } else {
    decoded = decode_op(isa::decode(mem_.fetch32(pc_)));
    fetched = &decoded;
  }
  const DecodedOp& op = *fetched;
  if (op.kind == Kind::kInvalid) {
    throw SimError("illegal instruction " + hex32(mem_.fetch32(pc_)) +
                   " at " + hex32(pc_));
  }
  const Instruction& instr = op.instr;

  // Fetch-time ZOLC event (speculative: discarded if this instruction is a
  // taken control transfer, mirroring the pipeline's rollback). Only a
  // control transfer can discard it, so only those take the snapshot.
  const bool fetch_triggers = accel_ != nullptr && accel_->will_trigger(pc_);
  if (fetch_triggers && op.is_control()) {
    pre_fetch_ = accel_->snapshot();
  }
  const std::optional<AccelEvent> fetch_event =
      fetch_triggers ? accel_->on_fetch(pc_) : std::nullopt;
  if (fetch_triggers) {
    ZS_ASSERT(fetch_event.has_value());
    ++stats_.zolc_fetch_events;
  }

  // Operand reads (before any write-backs of this step).
  const std::int32_t rs_val = regs_.read(instr.rs);
  const std::int32_t rt_val = regs_.read(instr.rt);
  const std::int32_t rd_val = regs_.read(instr.rd);

  bool taken_control = false;
  std::uint32_t control_target = 0;

  switch (op.kind) {
    case Kind::kAlu:
    case Kind::kAdd:
    case Kind::kMac:
    case Kind::kMax:
    case Kind::kSll:
    case Kind::kMul:
    case Kind::kAluImm:
    case Kind::kAddi: {
      AluInputs in;
      in.a = rs_val;
      in.b = op.imm_operand() ? instr.imm : rt_val;
      in.acc = rd_val;
      in.shamt = instr.shamt;
      regs_.write(op.dest, alu_eval(instr.op, in));
      break;
    }
    case Kind::kLoad:
    case Kind::kStore: {
      const std::uint32_t addr = static_cast<std::uint32_t>(rs_val) +
                                 static_cast<std::uint32_t>(instr.imm);
      if (op.kind == Kind::kLoad) {
        regs_.write(op.dest, mem_load(instr.op, mem_, addr));
      } else {
        mem_store(instr.op, mem_, addr, rt_val);
      }
      break;
    }
    case Kind::kBranch:
    case Kind::kJump:
    case Kind::kJumpReg: {
      const ControlOutcome control = resolve_control(op, pc_, rs_val, rt_val);
      taken_control = control.taken;
      control_target = control.target;
      // dbne writes back its decremented counter, jal and jalr their link;
      // the other transfers have no destination.
      const std::int32_t written = op.kind == Kind::kBranch
                                       ? wrap_sub(rs_val, 1)
                                       : static_cast<std::int32_t>(pc_ + 4);
      regs_.write(op.dest, written);
      break;
    }
    case Kind::kZolc: {
      if (accel_ == nullptr) {
        throw SimError("ZOLC instruction at " + hex32(pc_) +
                       " with no loop accelerator attached");
      }
      if (instr.op == Opcode::kZolOn) {
        accel_->activate(instr.zidx, static_cast<std::uint32_t>(rs_val));
      } else if (instr.op == Opcode::kZolOff) {
        accel_->deactivate();
      } else {
        accel_->init_write(instr.op, instr.zidx,
                           static_cast<std::uint32_t>(rs_val));
      }
      break;
    }
    case Kind::kHalt:
      halted_ = true;
      break;
    case Kind::kInvalid:
      ZS_UNREACHABLE("invalid instructions trap at fetch");
  }

  ++stats_.instructions;
  if (retire_hook_) retire_hook_(pc_, instr);

  if (taken_control) {
    ++stats_.taken_control;
    // The fetch-time speculation assumed fall-through; discard it.
    if (fetch_event) {
      accel_->restore(pre_fetch_);
    }
    if (accel_ != nullptr) {
      if (auto resolution = accel_->on_taken_control(pc_, control_target)) {
        ++stats_.zolc_resolution_events;
        for (const RfWrite& w : resolution->rf_writes) {
          regs_.write(w.reg, w.value);
        }
      }
    }
    pc_ = control_target;
    return;
  }

  if (fetch_event) {
    for (const RfWrite& w : fetch_event->rf_writes) {
      regs_.write(w.reg, w.value);
    }
    fetch_redirected_ = fetch_event->redirect.has_value();
    pc_ = fetch_event->redirect.value_or(pc_ + 4);
    return;
  }
  pc_ += 4;
}

std::uint64_t Iss::run(std::uint64_t max_steps) {
  stats_ = IssStats{};
  summarizer_.reset_stats();
  const std::uint64_t executed = run_slice(max_steps);
  if (!halted_) {
    throw SimError("ISS step limit (" + std::to_string(max_steps) +
                   ") exceeded at pc " + hex32(pc_));
  }
  return executed;
}

std::uint64_t Iss::run_slice(std::uint64_t max_steps) {
  std::uint64_t executed = 0;
  while (!halted_ && executed < max_steps) {
    step();
    ++executed;
    // A fetch-event redirect is the only way execution (re-)enters a
    // ZOLC-managed body's first instruction mid-region; that is where the
    // summary tier can take over. Disabled under a retire hook, which must
    // observe every instruction individually. The slice budget caps the
    // replay, so a preemption point inside a would-be replay simply ends
    // the replay early and re-validates after the restore.
    if (fast_path_ && fetch_redirected_ && accel_ != nullptr &&
        !retire_hook_) {
      const LoopSummarizer::Replay replay = summarizer_.try_engage(
          *accel_, image_, mem_, regs_, pc_, max_steps - executed);
      if (replay.engaged) {
        executed += replay.instructions;
        stats_.instructions += replay.instructions;
        stats_.zolc_fetch_events += replay.fetch_events;
        pc_ = replay.resume_pc;
      }
    }
  }
  return executed;
}

}  // namespace zolcsim::cpu
