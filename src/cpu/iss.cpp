#include "cpu/iss.hpp"

#include "common/strings.hpp"

namespace zolcsim::cpu {

namespace {

using isa::Instruction;
using isa::Opcode;
using Kind = DecodedOp::Kind;

}  // namespace

[[gnu::always_inline]] inline void Iss::step_body() {
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

  // Fetch-time ZOLC event (DESIGN.md 4.2). Only a taken control transfer
  // discards it; step_control decides the transfer before it resolves the
  // event. A ZOLC instruction resolves it before it executes (step_zolc); any
  // other instruction after its own write-back, below, so that its index
  // writes land last and a trapping access leaves the controller as it
  // was.
  const bool fetch_triggers = accel_ != nullptr && accel_->will_trigger(pc_);
  const Instruction& instr = op.instr;
  const auto read = [this](unsigned reg) { return regs_.read(reg); };
  // One label per ALU kind: the kind is then known in each case, and
  // alu_kind_eval's own switch folds away.
  switch (op.kind) {
    case Kind::kAlu:
      regs_.write(op.dest, alu_kind_eval(op, read));
      break;
    case Kind::kAdd:
      regs_.write(op.dest, alu_kind_eval(op, read));
      break;
    case Kind::kMac:
      regs_.write(op.dest, alu_kind_eval(op, read));
      break;
    case Kind::kMax:
      regs_.write(op.dest, alu_kind_eval(op, read));
      break;
    case Kind::kSll:
      regs_.write(op.dest, alu_kind_eval(op, read));
      break;
    case Kind::kMul:
      regs_.write(op.dest, alu_kind_eval(op, read));
      break;
    case Kind::kAluImm:
      regs_.write(op.dest, alu_kind_eval(op, read));
      break;
    case Kind::kAddi:
      regs_.write(op.dest, alu_kind_eval(op, read));
      break;
    case Kind::kLoad:
      regs_.write(op.dest, mem_load(instr.op, mem_, effective_address(instr)));
      break;
    case Kind::kStore:
      mem_store(instr.op, mem_, effective_address(instr), regs_.read(instr.rt));
      break;
    case Kind::kBranch:
    case Kind::kJump:
    case Kind::kJumpReg:
      step_control(op, fetch_triggers);
      return;
    case Kind::kZolc:
      step_zolc(instr, fetch_triggers);
      return;
    case Kind::kHalt:
      halted_ = true;
      break;
    case Kind::kInvalid:
      ZS_UNREACHABLE("invalid instructions trap at fetch");
  }
  retire(instr, fetch_triggers ? resolve_fetch_event() : std::nullopt);
}

std::uint32_t Iss::effective_address(const Instruction& instr) const {
  return regs_.read_u(instr.rs) + static_cast<std::uint32_t>(instr.imm);
}

std::optional<std::uint32_t> Iss::resolve_fetch_event() {
  const std::optional<std::uint32_t> redirect = accel_->fetch_event(
      pc_, [this](std::uint8_t reg, std::int32_t value) {
        regs_.write(reg, value);
      });
  ++stats_.zolc_fetch_events;
  return redirect;
}

void Iss::retire(const Instruction& instr,
                 std::optional<std::uint32_t> redirect) {
  ++stats_.instructions;
  if (retire_hook_) retire_hook_(pc_, instr);
  fetch_redirected_ = redirect.has_value();
  pc_ = redirect.value_or(pc_ + 4);
}

void Iss::step_control(const DecodedOp& op, bool fetch_triggers) {
  const Instruction& instr = op.instr;
  const std::int32_t rs_val = regs_.read(instr.rs);
  const ControlOutcome control =
      resolve_control(op, pc_, rs_val, regs_.read(instr.rt));
  // dbne writes back its decremented counter, jal and jalr their link;
  // the other transfers have no destination.
  const std::int32_t written = op.kind == Kind::kBranch
                                   ? wrap_sub(rs_val, 1)
                                   : static_cast<std::int32_t>(pc_ + 4);
  // The outcome is known before the fetch event resolves, and the event
  // resolves before that write-back, so a walk fault leaves it undone.

  if (!control.taken) {
    // A fall-through keeps the event. Its index writes land after the
    // write-back, so one to the same register takes its place.
    std::optional<std::uint32_t> redirect;
    bool overwritten = false;
    if (fetch_triggers) {
      redirect = accel_->fetch_event(
          pc_, [this, &op, &overwritten](std::uint8_t reg, std::int32_t value) {
            regs_.write(reg, value);
            overwritten |= reg == op.dest;
          });
      ++stats_.zolc_fetch_events;
    }
    if (!overwritten) regs_.write(op.dest, written);
    retire(instr, redirect);
    return;
  }

  // A taken transfer discards the event, as the pipeline rolls it back. It
  // still resolves, from a snapshot restored after, so that its fault
  // raises and the controller counts it.
  if (fetch_triggers) {
    const zolc::AccelSnapshot before = accel_->snapshot();
    accel_->fetch_event(pc_, [](std::uint8_t, std::int32_t) {});
    accel_->restore(before);
    ++stats_.zolc_fetch_events;
  }
  regs_.write(op.dest, written);
  ++stats_.instructions;
  if (retire_hook_) retire_hook_(pc_, instr);
  ++stats_.taken_control;
  if (accel_ != nullptr) {
    if (auto resolution = accel_->on_taken_control(pc_, control.target)) {
      ++stats_.zolc_resolution_events;
      for (const zolc::RfWrite& w : resolution->rf_writes) {
        regs_.write(w.reg, w.value);
      }
    }
  }
  pc_ = control.target;
}

void Iss::step_zolc(const Instruction& instr, bool fetch_triggers) {
  if (accel_ == nullptr) {
    throw SimError("ZOLC instruction at " + hex32(pc_) +
                   " with no loop accelerator attached");
  }
  // The operand is read before the fetch event's index writes land.
  const std::uint32_t value = regs_.read_u(instr.rs);
  const std::optional<std::uint32_t> redirect =
      fetch_triggers ? resolve_fetch_event() : std::nullopt;
  if (instr.op == Opcode::kZolOn) {
    accel_->activate(instr.zidx, value);
  } else if (instr.op == Opcode::kZolOff) {
    accel_->deactivate();
  } else {
    accel_->init_write(instr.op, instr.zidx, value);
  }
  retire(instr, redirect);
}

void Iss::step() { step_body(); }

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
    step_body();
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
