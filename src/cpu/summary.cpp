#include "cpu/summary.hpp"

#include <algorithm>
#include <cstring>

#include "common/contracts.hpp"
#include "cpu/exec.hpp"

namespace zolcsim::cpu {

namespace {

using isa::Instruction;
using Kind = DecodedOp::Kind;

constexpr std::size_t idx(BailoutReason reason) noexcept {
  return static_cast<std::size_t>(reason);
}

}  // namespace

const char* bailout_reason_name(BailoutReason reason) {
  switch (reason) {
    case BailoutReason::kShortLoop:
      return "short_loop";
    case BailoutReason::kControlFlow:
      return "control_flow";
    case BailoutReason::kNonAffineUpdate:
      return "non_affine_update";
    case BailoutReason::kExitRecord:
      return "exit_record";
    case BailoutReason::kAccelMutation:
      return "accel_mutation";
    case BailoutReason::kTrap:
      return "trap";
    case BailoutReason::kSelfModifyingStore:
      return "self_modifying_store";
    case BailoutReason::kOverlappingStore:
      return "overlapping_store";
    case BailoutReason::kValidationMismatch:
      return "validation_mismatch";
  }
  ZS_UNREACHABLE("bailout_reason_name: bad enum value");
}

LoopSummarizer::CacheEntry LoopSummarizer::analyze_body(
    std::uint32_t body_start, std::uint32_t body_end,
    const DecodedImage* image, const mem::Memory& mem) {
  CacheEntry entry;
  if (body_start > body_end || ((body_end - body_start) & 3u) != 0) {
    entry.rejected = BailoutReason::kTrap;
    return entry;
  }
  BodyInfo& body = entry.body;
  // Registers with at least one non-self-affine write; such a register can
  // still be read, but disqualifies closed-form replay of any store whose
  // address it bases.
  std::uint32_t nonaffine_mask = 0;
  for (std::uint32_t p = body_start;; p += 4) {
    const DecodedOp op = fetch_op(image, mem, p);
    switch (op.kind) {
      case Kind::kInvalid:
        entry.rejected = BailoutReason::kTrap;
        return entry;
      case Kind::kZolc:
        entry.rejected = BailoutReason::kAccelMutation;
        return entry;
      case Kind::kBranch:
      case Kind::kJump:
      case Kind::kJumpReg:
      case Kind::kHalt:
        entry.rejected = BailoutReason::kControlFlow;
        return entry;
      default:
        break;
    }
    for (std::uint8_t i = 0; i < op.srcs.count; ++i) {
      body.reads_mask |= 1u << op.srcs.regs[i];
    }
    if (op.dest != 0) {
      body.writes_mask |= 1u << op.dest;
      if (op.kind == Kind::kAddi && op.instr.rs == op.dest) {
        body.affine_delta[op.dest] += op.instr.imm;
      } else {
        nonaffine_mask |= 1u << op.dest;
      }
    }
    if (op.kind == Kind::kStore) {
      body.store_slots.push_back(static_cast<std::uint32_t>(body.ops.size()));
    }
    body.ops.push_back(op);
    if (p == body_end) break;
  }
  // A non-affine write poisons the affine delta too: the register's
  // per-iteration advance is no longer the sum of its addi immediates.
  for (unsigned r = 0; r < isa::kNumRegs; ++r) {
    if ((nonaffine_mask >> r) & 1u) body.affine_delta[r] = 0;
  }
  for (std::uint32_t slot : body.store_slots) {
    const std::uint8_t base = body.ops[slot].instr.rs;
    if (((body.writes_mask >> base) & 1u) != 0 &&
        ((nonaffine_mask >> base) & 1u) != 0) {
      entry.bulk_rejected = BailoutReason::kNonAffineUpdate;
      break;
    }
  }
  return entry;
}

LoopSummarizer::CacheEntry& LoopSummarizer::region(std::uint32_t start,
                                                   std::uint32_t end,
                                                   const DecodedImage* image,
                                                   const mem::Memory& mem) {
  const std::uint64_t key = (static_cast<std::uint64_t>(start) << 32) | end;
  // Two MRU ways: a loop nest with an imperfect level alternates between
  // the innermost body and the wrapper region every iteration.
  if (mru_entry_[0] != nullptr && key == mru_key_[0]) return *mru_entry_[0];
  if (mru_entry_[1] != nullptr && key == mru_key_[1]) {
    std::swap(mru_key_[0], mru_key_[1]);
    std::swap(mru_entry_[0], mru_entry_[1]);
    return *mru_entry_[0];
  }
  auto it = cache_.find(key);
  if (it == cache_.end()) {
    it = cache_.emplace(key, analyze_body(start, end, image, mem)).first;
    if (!it->second.rejected) {
      cache_lo_ = std::min(cache_lo_, start);
      cache_hi_ = std::max(cache_hi_, end);
    }
  }
  mru_key_[1] = mru_key_[0];
  mru_entry_[1] = mru_entry_[0];
  mru_key_[0] = key;
  mru_entry_[0] = &it->second;
  return it->second;
}

std::optional<BailoutReason> LoopSummarizer::check_recorded_iterations(
    const std::vector<StoreRecord>& first,
    const std::vector<StoreRecord>& second,
    const std::vector<std::int64_t>& predicted_strides) {
  for (std::size_t i = 0; i < first.size(); ++i) {
    const std::uint64_t a_lo = first[i].addr;
    const std::uint64_t a_hi = a_lo + first[i].size;
    for (std::size_t j = i + 1; j < first.size(); ++j) {
      const std::uint64_t b_lo = first[j].addr;
      const std::uint64_t b_hi = b_lo + first[j].size;
      if (a_lo < b_hi && b_lo < a_hi) return BailoutReason::kOverlappingStore;
    }
  }
  if (second.empty()) return std::nullopt;
  if (second.size() != first.size() ||
      predicted_strides.size() != first.size()) {
    return BailoutReason::kValidationMismatch;
  }
  for (std::size_t i = 0; i < first.size(); ++i) {
    const std::int64_t observed = static_cast<std::int64_t>(second[i].addr) -
                                  static_cast<std::int64_t>(first[i].addr);
    if (observed != predicted_strides[i] || second[i].size != first[i].size) {
      return BailoutReason::kValidationMismatch;
    }
  }
  return std::nullopt;
}

LoopSummarizer::RunOutcome LoopSummarizer::run_region(
    const BodyInfo& body, mem::Memory& mem, RegFile& regs,
    std::uint64_t passes, std::uint64_t edge_limit, std::uint8_t idx_reg,
    std::int32_t idx_step, std::int32_t* idx_val,
    std::vector<StoreRecord>* record, std::optional<BailoutReason>* bail) {
  RunOutcome out;
  const DecodedOp* const ops = body.ops.data();
  const std::size_t n = body.ops.size();
  const auto read = [&regs](unsigned reg) { return regs.read_raw(reg); };
  for (std::uint64_t pass = 0; pass < passes; ++pass) {
  for (std::size_t j = 0; j < n; ++j) {
    const DecodedOp& u = ops[j];
    const Instruction& ins = u.instr;
    // One label per ALU kind: the kind is then known in each case, and
    // alu_kind_eval's own switch folds away.
    switch (u.kind) {
      case Kind::kAlu:
        regs.write_raw(u.dest, alu_kind_eval(u, read));
        break;
      case Kind::kAdd:
        regs.write_raw(u.dest, alu_kind_eval(u, read));
        break;
      case Kind::kMac:
        regs.write_raw(u.dest, alu_kind_eval(u, read));
        break;
      case Kind::kMax:
        regs.write_raw(u.dest, alu_kind_eval(u, read));
        break;
      case Kind::kSll:
        regs.write_raw(u.dest, alu_kind_eval(u, read));
        break;
      case Kind::kMul:
        regs.write_raw(u.dest, alu_kind_eval(u, read));
        break;
      case Kind::kAluImm:
        regs.write_raw(u.dest, alu_kind_eval(u, read));
        break;
      case Kind::kAddi:
        regs.write_raw(u.dest, alu_kind_eval(u, read));
        break;
      case Kind::kLoad: {
        const auto addr =
            static_cast<std::uint32_t>(regs.read_raw(ins.rs) + ins.imm);
        if ((addr & (u.width - 1u)) != 0) {
          // Resume at this instruction; the baseline re-executes it and
          // raises the MemoryFault with its precise message.
          *bail = BailoutReason::kTrap;
          out.partial = j;
          return out;
        }
        const std::uint8_t* const page = mem.peek_page(addr);
        if (page == nullptr) {  // never written: reads as zero
          regs.write_raw(u.dest, 0);
          break;
        }
        const std::uint32_t ofs = addr & (mem::Memory::kPageSize - 1);
        std::int32_t value = 0;
        switch (u.width) {
          case 1:
            value = u.sign_extend ? static_cast<std::int8_t>(page[ofs])
                                  : page[ofs];
            break;
          case 2: {
            std::uint16_t v = 0;
            std::memcpy(&v, page + ofs, 2);
            value = u.sign_extend ? static_cast<std::int16_t>(v) : v;
            break;
          }
          default: {
            std::uint32_t v = 0;
            std::memcpy(&v, page + ofs, 4);
            value = static_cast<std::int32_t>(v);
            break;
          }
        }
        regs.write_raw(u.dest, value);
        break;
      }
      case Kind::kStore: {
        const auto addr =
            static_cast<std::uint32_t>(regs.read_raw(ins.rs) + ins.imm);
        if ((addr & (u.width - 1u)) != 0) {
          *bail = BailoutReason::kTrap;
          out.partial = j;
          return out;
        }
        // Bail before a store lands inside any summarized region: the
        // cached records must never go stale. Conservative (the bounds
        // cover the whole cached span), costs two compares per store.
        // 64-bit sums: a store to the last word must not wrap to 0.
        if (std::uint64_t{addr} <= std::uint64_t{cache_hi_} + 3 &&
            std::uint64_t{addr} + u.width > cache_lo_) {
          *bail = BailoutReason::kSelfModifyingStore;
          out.partial = j;
          return out;
        }
        if (record != nullptr) record->push_back({addr, u.width});
        std::uint8_t* const page = mem.touch_page(addr);
        const std::uint32_t ofs = addr & (mem::Memory::kPageSize - 1);
        const auto uv = static_cast<std::uint32_t>(regs.read_raw(ins.rt));
        switch (u.width) {
          case 1:
            page[ofs] = static_cast<std::uint8_t>(uv);
            break;
          case 2: {
            const auto v = static_cast<std::uint16_t>(uv);
            std::memcpy(page + ofs, &v, 2);
            break;
          }
          default:
            std::memcpy(page + ofs, &uv, 4);
            break;
        }
        break;
      }
      case Kind::kInvalid:
      case Kind::kBranch:
      case Kind::kJump:
      case Kind::kJumpReg:
      case Kind::kZolc:
      case Kind::kHalt:
        ZS_UNREACHABLE("analyze_body admits only ALU, load and store kinds");
    }
  }
  ++out.passes;
  if (out.passes <= edge_limit) {
    // Fused back-edge: the hardware's continue event at the body's last
    // instruction -- index recurrence applied; the redirect is implicit in
    // the next pass starting over at the first record.
    *idx_val = wrap_add(*idx_val, idx_step);
    regs.write_raw(idx_reg, *idx_val);
  }
  }
  return out;
}

LoopSummarizer::Replay LoopSummarizer::try_engage(
    zolc::ZolcController& accel, const DecodedImage* image, mem::Memory& mem,
    RegFile& regs, std::uint32_t pc, std::uint64_t max_instructions) {
  Replay out;
  out.resume_pc = pc;
  const zolc::NestProgram* const np = accel.nest_program();
  if (np == nullptr) return out;  // inactive
  zolc::AccelSnapshot snap = accel.snapshot();
  if (snap.current_task >= np->tasks.size()) return out;
  const zolc::NestTaskDesc* const tasks = np->tasks.data();
  const zolc::NestLoopDesc* const loops = np->loops.data();
  if (!tasks[snap.current_task].valid ||
      pc > tasks[snap.current_task].end_pc) {
    return out;
  }
  ++stats_.attempts;

  // The entire run below -- region passes, back-edges, boundary events,
  // cascades -- operates on this engagement-local copy of the controller's
  // dynamic state; the final state is written back once via restore().
  std::int32_t* const cur = snap.loop_current.data();
  std::uint8_t& cur_task = snap.current_task;
  bool& active = snap.active;
  std::uint32_t cur_pc = pc;
  std::uint64_t continues = 0;
  std::uint64_t dones = 0;
  std::uint64_t cascades = 0;
  std::uint64_t max_depth = 0;
  std::optional<BailoutReason> bail;
  // Boundary events write their indices straight into the register file.
  const auto sink = [&regs](std::uint8_t reg, std::int32_t value) {
    regs.write_raw(reg, value);
  };

  // Engagement-local direct-mapped region cache: a nest cycles through a
  // handful of regions, and this keeps their CacheEntry pointers (stable
  // map nodes) in locals, skipping the region() call on the steady state.
  std::uint64_t rkey[4] = {0, 0, 0, 0};
  CacheEntry* rent[4] = {nullptr, nullptr, nullptr, nullptr};

  while (out.instructions < max_instructions && active) {
    const zolc::NestTaskDesc& task = tasks[cur_task];
    // An invalid current task never raises an event; nothing bounds a
    // summarizable region, so hand back to cycle-accurate stepping.
    if (!task.valid) break;
    if (!task.walk_safe) {
      // The boundary event could hit a table-programming fault mid-walk;
      // decline so the baseline raises the SimError precisely at the fetch.
      bail = BailoutReason::kTrap;
      break;
    }
    const std::uint32_t trig = task.end_pc;
    if (cur_pc > trig) break;
    const std::uint64_t rk =
        (static_cast<std::uint64_t>(cur_pc) << 32) | trig;
    const unsigned ri = (cur_pc >> 2) & 3u;
    CacheEntry* entry_p = rent[ri];
    if (entry_p == nullptr || rkey[ri] != rk) {
      entry_p = &region(cur_pc, trig, image, mem);
      rkey[ri] = rk;
      rent[ri] = entry_p;
    }
    CacheEntry& entry = *entry_p;
    if (entry.rejected) {
      bail = *entry.rejected;
      break;
    }
    const BodyInfo& body = entry.body;
    const std::size_t body_len = body.ops.size();

    // A self-looping task from its body start replays in bulk: all its
    // remaining passes run fused in run_region, back-edges included, with
    // no boundary-event resolution until the final (done) iteration. A
    // task whose continue successor self-loops over the same loop and body
    // (the per-level re-entry tasks a nest compiles to) is equally
    // bulk-eligible: its first back-edge just renames the current task.
    bool body_done = false;  // final pass already executed by the bulk path
    bool self = task.cont == cur_task && cur_pc == task.start_pc;
    if (!self && cur_pc == task.start_pc) {
      const zolc::NestTaskDesc& ct = tasks[task.cont];
      self = ct.valid && ct.walk_safe && ct.cont == task.cont &&
             ct.loop == task.loop && ct.start_pc == task.start_pc &&
             ct.end_pc == task.end_pc;
    }
    if (self) {
      const zolc::NestLoopDesc& loop = loops[task.loop];
      if (loop.has_exit_records) {
        bail = BailoutReason::kExitRecord;
        break;
      }
      if (((body.writes_mask >> loop.index_rf) & 1u) != 0 ||
          entry.bulk_rejected) {
        bail = BailoutReason::kNonAffineUpdate;
        break;
      }
      const std::int64_t remaining =
          cur[task.loop] == loop.initial && loop.trips > 0
              ? static_cast<std::int64_t>(loop.trips) - 1
              : zolc::nest_remaining_backedges(cur[task.loop], loop.step,
                                               loop.final, loop.cond);
      if (remaining > 0 &&
          static_cast<std::uint64_t>(remaining) >= min_backedges_) {
        const bool reads_index =
            ((body.reads_mask >> loop.index_rf) & 1u) != 0;

        const std::uint64_t budget = max_instructions - out.instructions;
        // Passes to run: remaining + 1 includes the final (done) iteration,
        // whose boundary event the walk below resolves. A budget clamp
        // stops mid-loop instead, with every completed pass back-edged.
        // The guard multiplies instead of dividing (the division is hot);
        // the magnitude pre-check keeps the product from overflowing.
        std::uint64_t want = static_cast<std::uint64_t>(remaining) + 1;
        bool budget_stop = false;
        if (want > (std::uint64_t{1} << 40) || want * body_len > budget) {
          const std::uint64_t room = budget / body_len;
          if (room < want) {
            want = room;
            budget_stop = true;
          }
        }
        if (want == 0) break;
        const std::uint64_t backedges_total =
            budget_stop ? want : static_cast<std::uint64_t>(remaining);

        // With stores present, the first two passes run singly with store
        // recording, validating the static stride prediction before the
        // fused remainder commits. A store-free body has nothing to
        // validate (the check is vacuous), so all passes fuse directly.
        const std::int32_t entry_index = cur[task.loop];
        std::int32_t ival = entry_index;
        std::uint64_t done_passes = 0;
        std::size_t partial = 0;
        scratch_rec_[0].clear();
        scratch_rec_[1].clear();
        const std::uint64_t prefix =
            body.store_slots.empty() ? 0 : std::min<std::uint64_t>(2, want);
        std::vector<std::int64_t>& strides = scratch_strides_;
        if (prefix != 0) {
          // Per-iteration address stride each store slot is predicted to
          // take, for validating the recorded passes below.
          strides.clear();
          for (std::uint32_t slot : body.store_slots) {
            const std::uint8_t base = body.ops[slot].instr.rs;
            strides.push_back(base == loop.index_rf
                                  ? loop.step
                                  : body.affine_delta[base]);
          }
        }
        for (std::uint64_t it = 0; it < prefix && !bail; ++it) {
          partial = run_region(body, mem, regs, 1, 0, 0, 0, nullptr,
                               &scratch_rec_[it], &bail)
                        .partial;
          if (bail) break;
          ++done_passes;
          if (done_passes <= backedges_total) {
            ival = wrap_add(ival, loop.step);
            if (reads_index) regs.write_raw(loop.index_rf, ival);
          }
          // Validate only a pass that took its back-edge: a bail resumes at
          // start_pc, so bailing after the final (done) pass would run that
          // pass twice.
          if (it == 1 && done_passes <= backedges_total) {
            if (auto check = check_recorded_iterations(
                    scratch_rec_[0], scratch_rec_[1], strides)) {
              bail = check;
              partial = 0;  // the iteration completed; boundary is exact
            }
          }
        }
        if (!bail && done_passes < want) {
          const std::uint64_t rem_edges =
              backedges_total > done_passes ? backedges_total - done_passes
                                            : 0;
          const RunOutcome o = run_region(
              body, mem, regs, want - done_passes,
              reads_index ? rem_edges : 0, loop.index_rf, loop.step, &ival,
              nullptr, &bail);
          partial = o.partial;
          done_passes += o.passes;
        }
        const std::uint64_t backedges_taken =
            std::min<std::uint64_t>(done_passes, backedges_total);
        if (!reads_index) {
          // Index writes elided during replay (the body never reads the
          // index): one closed-form write lands the final value.
          ival = static_cast<std::int32_t>(
              static_cast<std::uint32_t>(entry_index) +
              static_cast<std::uint32_t>(loop.step) *
                  static_cast<std::uint32_t>(backedges_taken));
          if (backedges_taken > 0) regs.write_raw(loop.index_rf, ival);
        }
        cur[task.loop] = ival;
        out.instructions += done_passes * body_len + (bail ? partial : 0);
        out.fetch_events += backedges_taken;
        continues += backedges_taken;
        // The first back-edge switched to the continue successor (a no-op
        // for a strictly self-looping task).
        if (backedges_taken > 0) cur_task = task.cont;
        if (bail) {
          cur_pc = task.start_pc + 4 * static_cast<std::uint32_t>(partial);
          break;
        }
        if (budget_stop) {
          cur_pc = task.start_pc;
          break;
        }
        body_done = true;
      } else if (remaining >= 0 && out.instructions == 0) {
        bail = BailoutReason::kShortLoop;
        break;
      }
      // remaining < 0 (non-terminating recurrence) or a short loop reached
      // mid-chain: run pass-by-pass, the walk taking each back-edge.
    }

    if (!body_done) {
      if (out.instructions + body_len > max_instructions) break;
      const std::size_t partial =
          run_region(body, mem, regs, 1, 0, 0, 0, nullptr, nullptr, &bail)
              .partial;
      if (bail) {
        out.instructions += partial;
        cur_pc += 4 * static_cast<std::uint32_t>(partial);
        break;
      }
      out.instructions += body_len;
    }

    // Boundary event at trig: the controller's own event walk on the
    // engagement-local state. The task is walk_safe, so it cannot fault.
    ++out.fetch_events;  // mirrors the baseline's zolc_fetch_events count
    const auto ev =
        zolc::walk_fetch_event(*np, cur, cur_task, active, trig, sink);
    ZS_ASSERT(ev.fault == zolc::WalkFault::kNone);
    continues += ev.continues;
    dones += ev.dones;
    if (ev.depth > 1) {
      ++cascades;
      if (ev.depth > max_depth) max_depth = ev.depth;
    }
    cur_pc = ev.redirect.value_or(trig + 4);
  }

  // One write-back covers every event resolved above; the credited counters
  // are exactly what the skipped fetch events would have counted.
  if (continues + dones > 0) {
    accel.restore(snap);
    accel.credit_summary_events(continues, dones, cascades, max_depth);
  }

  out.resume_pc = cur_pc;
  if (bail) ++stats_.bailouts[idx(*bail)];
  out.engaged = out.instructions > 0;
  if (out.engaged) ++stats_.engagements;
  stats_.replayed_instructions += out.instructions;
  stats_.replayed_backedges += out.fetch_events;
  return out;
}

}  // namespace zolcsim::cpu
