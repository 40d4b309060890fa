// Loop-summary fast path for the ISS (DESIGN.md section 7). When execution
// lands inside a ZOLC-managed region, the LoopSummarizer takes over from
// per-instruction stepping. It reads the controller's tables once, as the
// exported NestProgram (uZOLC's loop is a one-task program), then copies
// the decoded records of the straight-line region between the current PC
// and the current task's end, executes them in a tight loop, resolves the
// boundary event with walk_fetch_event (the walk the controller's
// fetch_event runs), and follows it into the next region. When the current
// task self-loops (an innermost loop body repeating under pure back-edge
// control), it goes further: it records the first iteration's store
// pattern, validates it against the second, then replays the remaining
// iterations with the index recurrence fused in -- no per-iteration event
// resolution at all. The controller's dynamic state is written back once,
// through restore(), with the elided events credited.
// Replay is architecturally invisible: it evaluates ALU records with the
// ISS's own alu_kind_eval, accesses memory with the ISS's widths, extension
// and alignment rules, and every disqualifying event bails out to
// cycle-accurate mode at an exact instruction boundary with a typed
// BailoutReason surfaced as a counter.
#ifndef ZOLCSIM_CPU_SUMMARY_HPP
#define ZOLCSIM_CPU_SUMMARY_HPP

#include <array>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "cpu/decoded.hpp"
#include "cpu/regfile.hpp"
#include "mem/memory.hpp"
#include "zolc/controller.hpp"

namespace zolcsim::cpu {

/// Why a summary attempt declined to engage, or an engaged replay fell back
/// to cycle-accurate stepping. The first six are qualification failures
/// detected before the offending work executes; the last three are detected
/// mid-replay and bail out at an exact instruction boundary.
enum class BailoutReason : std::uint8_t {
  kShortLoop,           ///< too few remaining back-edges to amortize setup
  kControlFlow,         ///< region contains a branch, jump, or halt
  kNonAffineUpdate,     ///< body writes the loop index, or a store's base
                        ///< register is neither invariant nor self-affine
  kExitRecord,          ///< ZOLCfull candidate-exit records armed for loop
  kAccelMutation,       ///< region contains a ZOLC instruction
  kTrap,                ///< invalid instruction, misaligned data access, or
                        ///< a table-programming fault in the event walk --
                        ///< all re-raised precisely by the baseline
  kSelfModifyingStore,  ///< a store targets summarized code
  kOverlappingStore,    ///< recorded store ranges overlap within an iteration
  kValidationMismatch,  ///< second iteration contradicts the recorded pattern
};

inline constexpr std::size_t kNumBailoutReasons = 9;

/// Stable lower_snake name for JSON emission and test messages.
[[nodiscard]] const char* bailout_reason_name(BailoutReason reason);

/// Fast-path effectiveness counters, reset per Iss::run.
struct FastPathStats {
  std::uint64_t attempts = 0;     ///< times the tier was offered a region
  std::uint64_t engagements = 0;  ///< attempts that replayed >=1 instruction
  /// ZOLC events replayed (bulk back-edges + boundary events resolved
  /// inline); mirrors the zolc_fetch_events the baseline would count.
  std::uint64_t replayed_backedges = 0;
  std::uint64_t replayed_instructions = 0;
  std::array<std::uint64_t, kNumBailoutReasons> bailouts{};

  [[nodiscard]] std::uint64_t bailout(BailoutReason reason) const noexcept {
    return bailouts[static_cast<std::size_t>(reason)];
  }
  [[nodiscard]] std::uint64_t total_bailouts() const noexcept {
    std::uint64_t total = 0;
    for (std::uint64_t b : bailouts) total += b;
    return total;
  }

  friend bool operator==(const FastPathStats&, const FastPathStats&) = default;
};

class LoopSummarizer {
 public:
  /// One store executed during a recorded iteration: byte address + width.
  struct StoreRecord {
    std::uint32_t addr = 0;
    std::uint8_t size = 0;

    friend bool operator==(const StoreRecord&, const StoreRecord&) = default;
  };

  /// Outcome of try_engage. When `engaged`, the caller must account
  /// `instructions` executed instructions and `fetch_events` ZOLC events,
  /// and resume cycle-accurate stepping at `resume_pc` (always an exact
  /// instruction boundary).
  struct Replay {
    std::uint64_t instructions = 0;
    std::uint64_t fetch_events = 0;
    std::uint32_t resume_pc = 0;
    bool engaged = false;
  };

  /// Offers the fast path a chance to run at `pc`. Engages when the
  /// controller is active and `pc` opens a qualifying straight-line region
  /// ending at the current task's end PC; then alternates bulk replay of
  /// self-looping tasks with single region passes, resolving every boundary
  /// event with walk_fetch_event over accel.nest_program() on
  /// engagement-local copies of the controller's dynamic state (no call
  /// into the controller per event).
  /// Stops when a region disqualifies, the controller deactivates or falls
  /// through, or `max_instructions` is reached; then writes the final state
  /// back through restore() and credits the elided event counters. Leaves
  /// registers, memory, and accelerator state (ZolcStats included) exactly
  /// as cycle-accurate stepping would at resume_pc.
  Replay try_engage(zolc::ZolcController& accel, const DecodedImage* image,
                    mem::Memory& mem, RegFile& regs, std::uint32_t pc,
                    std::uint64_t max_instructions);

  /// Validation seam (also exercised directly by unit tests with doctored
  /// records): checks the first recorded iteration for overlapping store
  /// ranges and the second against the statically predicted per-iteration
  /// strides. Returns the bailout to take, or nullopt when the recording is
  /// consistent. `second` may be empty (iteration 2 not yet recorded).
  [[nodiscard]] static std::optional<BailoutReason> check_recorded_iterations(
      const std::vector<StoreRecord>& first,
      const std::vector<StoreRecord>& second,
      const std::vector<std::int64_t>& predicted_strides);

  [[nodiscard]] const FastPathStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = FastPathStats{}; }

  /// Drops decoded regions and cached disqualifications (call when the
  /// code image or program memory changes).
  void clear_cache() noexcept {
    cache_.clear();
    cache_lo_ = UINT32_MAX;
    cache_hi_ = 0;
    mru_key_[0] = mru_key_[1] = 0;
    mru_entry_[0] = mru_entry_[1] = nullptr;
  }

  /// Minimum remaining back-edges required to engage closed-form replay on
  /// a freshly entered self-loop (below it the attempt counts a kShortLoop
  /// bailout). Tests tune it to force engagement or short-loop declines.
  void set_min_backedges(std::uint64_t n) noexcept { min_backedges_ = n; }
  [[nodiscard]] std::uint64_t min_backedges() const noexcept {
    return min_backedges_;
  }

 private:
  /// The region's decoded records plus the static dataflow facts
  /// qualification needs. Only ALU, load and store kinds qualify.
  struct BodyInfo {
    std::vector<DecodedOp> ops;
    std::vector<std::uint32_t> store_slots;  ///< op indices of stores
    std::uint32_t reads_mask = 0;   ///< registers any op reads
    std::uint32_t writes_mask = 0;  ///< registers any op writes
    /// Net per-iteration delta for registers written only by affine
    /// self-increments (addi r, r, imm); zero for invariant registers.
    std::array<std::int32_t, isa::kNumRegs> affine_delta{};
  };

  struct CacheEntry {
    std::optional<BailoutReason> rejected;  ///< region cannot be replayed
    /// Region runs fine one pass at a time but cannot be replayed in
    /// closed form (a store base is neither invariant nor self-affine).
    std::optional<BailoutReason> bulk_rejected;
    BodyInfo body;  ///< valid iff !rejected
  };

  static CacheEntry analyze_body(std::uint32_t body_start,
                                 std::uint32_t body_end,
                                 const DecodedImage* image,
                                 const mem::Memory& mem);

  /// Looks up (or analyzes and caches) the region [start, end].
  CacheEntry& region(std::uint32_t start, std::uint32_t end,
                     const DecodedImage* image, const mem::Memory& mem);

  /// Outcome of run_region: fully completed passes, plus the number of ops
  /// executed into the bailed pass (the op at `partial` did NOT execute).
  struct RunOutcome {
    std::uint64_t passes = 0;
    std::size_t partial = 0;
  };

  /// Executes up to `passes` back-to-back passes over `body`'s records.
  /// After each of the first `edge_limit` completed passes the fused
  /// back-edge index write is applied: *idx_val += idx_step, written to
  /// `idx_reg` (callers replaying an index-blind body pass edge_limit 0 and
  /// land the final value themselves). `*bail` is set on a mid-pass
  /// bailout. When `record` is non-null, store addresses of every pass are
  /// appended to it. Memory goes through mem::Memory::peek_page and
  /// touch_page, looked up afresh on every access.
  RunOutcome run_region(const BodyInfo& body, mem::Memory& mem, RegFile& regs,
                        std::uint64_t passes, std::uint64_t edge_limit,
                        std::uint8_t idx_reg, std::int32_t idx_step,
                        std::int32_t* idx_val,
                        std::vector<StoreRecord>* record,
                        std::optional<BailoutReason>* bail);

  std::uint64_t min_backedges_ = 2;
  FastPathStats stats_;
  /// Keyed (start << 32) | end; cleared on clear_cache().
  std::unordered_map<std::uint64_t, CacheEntry> cache_;
  /// Two most-recently-used cache entries (map nodes are pointer-stable);
  /// way 0 is the most recent.
  std::uint64_t mru_key_[2] = {0, 0};
  CacheEntry* mru_entry_[2] = {nullptr, nullptr};
  /// Scratch buffers reused across engagements (allocation-free replay).
  std::vector<std::int64_t> scratch_strides_;
  std::vector<StoreRecord> scratch_rec_[2];
  /// Bounds of all cached executable regions: a store landing inside
  /// [cache_lo_, cache_hi_ + 3] bails out (kSelfModifyingStore) before
  /// executing, so cached records can never go stale.
  std::uint32_t cache_lo_ = UINT32_MAX;
  std::uint32_t cache_hi_ = 0;
};

}  // namespace zolcsim::cpu

#endif  // ZOLCSIM_CPU_SUMMARY_HPP
