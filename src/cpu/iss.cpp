#include "cpu/iss.hpp"

#include "common/strings.hpp"
#include "isa/encoding.hpp"

namespace zolcsim::cpu {

namespace {

using isa::Format;
using isa::Instruction;
using isa::Opcode;

}  // namespace

void Iss::set_code_image(isa::CodeImage image) {
  image_ = image;
  image_info_.clear();
  image_info_.reserve(image.size_words);
  for (std::size_t i = 0; i < image.size_words; ++i) {
    const Instruction& instr = image.code[i];
    image_info_.push_back(instr.valid() ? &isa::opcode_info(instr.op)
                                        : nullptr);
  }
  summarizer_.clear_cache();
}

void Iss::step() {
  if (halted_) return;
  fetch_redirected_ = false;

  // Fetch: by reference into the code image, with its predecoded opcode
  // metadata; outside the image, decode from memory.
  const Instruction* fetched = nullptr;
  const isa::OpcodeInfo* fetched_info = nullptr;
  Instruction decoded;
  if (image_.covers(pc_)) {
    const std::size_t word = (pc_ - image_.base) / 4;
    fetched = &image_.code[word];
    fetched_info = image_info_[word];
  } else {
    decoded = isa::decode(mem_.fetch32(pc_));
    fetched = &decoded;
    if (decoded.valid()) fetched_info = &isa::opcode_info(decoded.op);
  }
  if (fetched_info == nullptr) {
    throw SimError("illegal instruction " + hex32(mem_.fetch32(pc_)) +
                   " at " + hex32(pc_));
  }
  const Instruction& instr = *fetched;
  const isa::OpcodeInfo& info = *fetched_info;

  // Fetch-time ZOLC event (speculative: discarded if this instruction is a
  // taken control transfer, mirroring the pipeline's rollback). Only a
  // control transfer can discard it, so only those take the snapshot.
  const bool fetch_triggers = accel_ != nullptr && accel_->will_trigger(pc_);
  if (fetch_triggers && (info.is_cond_branch || info.is_jump)) {
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

  switch (info.format) {
    case Format::kR3:
    case Format::kR3Acc:
    case Format::kR2:
    case Format::kR1:
    case Format::kRShift: {
      if (instr.op == Opcode::kJr || instr.op == Opcode::kJalr) {
        taken_control = true;
        control_target = static_cast<std::uint32_t>(rs_val);
        if (instr.op == Opcode::kJalr) {
          regs_.write(instr.rd, static_cast<std::int32_t>(pc_ + 4));
        }
        break;
      }
      AluInputs in;
      in.a = rs_val;
      in.b = rt_val;
      in.acc = rd_val;
      in.shamt = instr.shamt;
      regs_.write(instr.rd, alu_eval(instr.op, in));
      break;
    }
    case Format::kI:
    case Format::kLui: {
      AluInputs in;
      in.a = rs_val;
      in.b = instr.imm;
      regs_.write(instr.rt, alu_eval(instr.op, in));
      break;
    }
    case Format::kBranchCmp:
    case Format::kBranchZero: {
      std::int32_t lhs = rs_val;
      if (instr.op == Opcode::kDbne) {
        lhs = alu_eval(Opcode::kDbne, AluInputs{rs_val, 0, 0, 0});
        regs_.write(instr.rs, lhs);
      }
      if (branch_taken(instr.op, lhs, rt_val)) {
        taken_control = true;
        control_target = isa::branch_target(instr, pc_);
      }
      break;
    }
    case Format::kMem: {
      const std::uint32_t addr = static_cast<std::uint32_t>(rs_val) +
                                 static_cast<std::uint32_t>(instr.imm);
      if (info.is_load) {
        regs_.write(instr.rt, mem_load(instr.op, mem_, addr));
      } else if (info.is_store) {
        mem_store(instr.op, mem_, addr, rt_val);
      } else {
        ZS_UNREACHABLE("memory format without memory opcode");
      }
      break;
    }
    case Format::kJump: {
      taken_control = true;
      control_target = isa::jump_target(instr, pc_);
      if (instr.op == Opcode::kJal) {
        regs_.write(31, static_cast<std::int32_t>(pc_ + 4));
      }
      break;
    }
    case Format::kZolcWrite:
    case Format::kZolcNone: {
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
    case Format::kNone: {
      if (instr.op == Opcode::kHalt) halted_ = true;
      break;
    }
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
