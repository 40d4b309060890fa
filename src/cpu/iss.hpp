// Instruction-set simulator (functional golden model). Executes one
// instruction per step with ZOLC semantics identical to the pipeline's: a
// fetch-time task-end event takes effect unless the triggering instruction
// is a taken control transfer. The ISS knows the transfer's outcome before
// it resolves the event, so it speculates nothing. Used for co-simulation
// tests against the cycle-accurate pipeline and for fast functional
// verification of kernels.
#ifndef ZOLCSIM_CPU_ISS_HPP
#define ZOLCSIM_CPU_ISS_HPP

#include <cstdint>
#include <functional>
#include <optional>

#include "cpu/decoded.hpp"
#include "cpu/exec.hpp"
#include "cpu/regfile.hpp"
#include "cpu/summary.hpp"
#include "mem/memory.hpp"
#include "zolc/controller.hpp"

namespace zolcsim::cpu {

/// Observer invoked once per architecturally executed instruction, in
/// program order. Shared by the ISS and the pipeline so retirement streams
/// can be compared instruction-by-instruction.
using RetireHook =
    std::function<void(std::uint32_t pc, const isa::Instruction& instr)>;

struct IssStats {
  std::uint64_t instructions = 0;
  std::uint64_t taken_control = 0;
  std::uint64_t zolc_fetch_events = 0;
  std::uint64_t zolc_resolution_events = 0;

  friend bool operator==(const IssStats&, const IssStats&) = default;
};

class Iss {
 public:
  explicit Iss(mem::Memory& memory) : mem_(memory) {}

  /// Attaches a loop controller (non-owning; may be nullptr).
  void set_accelerator(zolc::ZolcController* accel) noexcept {
    accel_ = accel;
  }

  /// Attaches a decoded code image (non-owning; must outlive the ISS).
  /// Fetches inside the image read its records; fetches outside it decode
  /// from memory.
  void set_code_image(const DecodedImage& image) noexcept {
    image_ = &image;
    summarizer_.clear_cache();
  }

  /// Enables the loop-summary fast path (DESIGN.md section 7): hardware-
  /// managed innermost loops replay through the decoded records instead of
  /// per-instruction stepping. Architecturally invisible; automatically
  /// disabled while a retire hook is attached (the hook must observe every
  /// instruction individually).
  void set_fast_path(bool on) noexcept { fast_path_ = on; }
  [[nodiscard]] bool fast_path() const noexcept { return fast_path_; }

  /// Observer called after each executed instruction.
  void set_retire_hook(RetireHook hook) { retire_hook_ = std::move(hook); }

  void set_pc(std::uint32_t pc) noexcept { pc_ = pc; }
  [[nodiscard]] std::uint32_t pc() const noexcept { return pc_; }
  [[nodiscard]] bool halted() const noexcept { return halted_; }

  [[nodiscard]] RegFile& regs() noexcept { return regs_; }
  [[nodiscard]] const RegFile& regs() const noexcept { return regs_; }
  [[nodiscard]] const IssStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const FastPathStats& fastpath_stats() const noexcept {
    return summarizer_.stats();
  }
  /// Direct summarizer access for tests (thresholds, validation seam).
  [[nodiscard]] LoopSummarizer& summarizer() noexcept { return summarizer_; }

  /// Executes one instruction. No-op when halted. Throws SimError on an
  /// invalid instruction or a ZOLC instruction with no accelerator attached.
  void step();

  /// Runs until halt or `max_steps`. Returns the number of instructions
  /// executed by this call. Throws SimError if the limit is hit. Starts
  /// from clean IssStats and FastPathStats so counters describe this run
  /// only, regardless of earlier step()/run() activity.
  std::uint64_t run(std::uint64_t max_steps);

  /// Runs until halt or until `max_steps` more instructions executed,
  /// whichever comes first, and returns the number executed by this call.
  /// Unlike run(), statistics accumulate across slices and exhausting the
  /// budget is not an error: callers time-slicing execution (preemption,
  /// tenant scheduling, the pipeline's steady-state skip) check halted()
  /// and enforce their own global budget. Aligned, so that the step loop
  /// keeps its cache-line offsets when other code moves.
  [[gnu::aligned(64)]] std::uint64_t run_slice(std::uint64_t max_steps);

 private:
  /// step()'s body. Always inlined (defined in iss.cpp), also into
  /// run_slice's loop, so that stepping makes no call per instruction.
  inline void step_body();
  /// Executes a branch or jump, whose fetch event a taken transfer
  /// discards.
  void step_control(const DecodedOp& op, bool fetch_triggers);
  /// Executes a ZOLC instruction, after its fetch event.
  void step_zolc(const isa::Instruction& instr, bool fetch_triggers);
  /// The byte address a load or store at rs + imm accesses.
  [[nodiscard]] std::uint32_t effective_address(
      const isa::Instruction& instr) const;
  /// Counts this step's fetch event and resolves it straight into the
  /// register file; returns its redirect.
  std::optional<std::uint32_t> resolve_fetch_event();
  /// Counts and reports the executed instruction, then moves to `redirect`
  /// or falls through.
  void retire(const isa::Instruction& instr,
              std::optional<std::uint32_t> redirect);

  mem::Memory& mem_;
  RegFile regs_;
  const DecodedImage* image_ = nullptr;
  zolc::ZolcController* accel_ = nullptr;
  RetireHook retire_hook_;
  LoopSummarizer summarizer_;
  std::uint32_t pc_ = 0;
  bool halted_ = false;
  bool fast_path_ = false;
  bool fetch_redirected_ = false;  ///< last step applied a fetch-event redirect
  IssStats stats_;
};

}  // namespace zolcsim::cpu

#endif  // ZOLCSIM_CPU_ISS_HPP
