// Cycle-accurate model of the modelled embedded RISC core: classic 5-stage
// in-order pipeline (IF/ID/EX/MEM/WB) with full forwarding, a load-use
// interlock, configurable branch resolution stage, and the ZOLC hookup of
// Fig. 1 of the paper:
//   * IF consults the loop controller each fetch ("PC decode" task-end
//     detection); a task end redirects the *next* fetch in the same cycle,
//     so hardware-managed loop back-edges cost zero cycles;
//   * index write-backs ride with the triggering instruction and commit when
//     it enters its resolution stage (modelling the dedicated RF write port);
//   * wrong-path fetches that crossed a task-end PC are rolled back from a
//     snapshot when the older taken branch resolves (kRollback policy), or
//     avoided entirely by stalling fetch while control flow is unresolved
//     (kGate policy, costs cycles; used for the ablation study).
// The controller builds each fetch event, and the pipeline takes its
// snapshot, in place in a small ring of event slots; the latches point at
// the instruction's decoded record rather than copying it. The cycle loop
// is compiled once per PipelineConfig, and run() picks the one to use.
//
// Steady-state skip (DESIGN.md 4.3): with no memory-latency model, timing
// depends only on the instruction stream and its control outcomes. When a
// ZOLC-managed loop whose body holds no branch, jump or ZOLC instruction
// reaches the same pipeline state at two consecutive retirements of its
// trigger, every further iteration but the last costs the same, so run()
// charges k times the measured PipelineStats delta in closed form and
// replays those iterations' architectural effect on a private ISS with the
// fast path on. A run with a retire hook steps every cycle. The cycle
// model is in cycle.hpp; pipeline.cpp compiles the loops that step every
// cycle, steady.cpp the loops that watch for steady states and skip.
#ifndef ZOLCSIM_CPU_PIPELINE_HPP
#define ZOLCSIM_CPU_PIPELINE_HPP

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "cpu/decoded.hpp"
#include "cpu/exec.hpp"
#include "cpu/iss.hpp"
#include "cpu/regfile.hpp"
#include "mem/memory.hpp"
#include "zolc/controller.hpp"

namespace zolcsim::cpu {

/// Stage in which conditional branches and jumps resolve. kExecute models
/// the default core (2-cycle taken penalty); kDecode models an early-branch
/// core (1-cycle penalty, extra operand interlocks).
enum class BranchResolveStage : std::uint8_t { kDecode, kExecute };

/// How fetch-time ZOLC events interact with in-flight unresolved control
/// flow (see file comment).
enum class SpeculationPolicy : std::uint8_t { kRollback, kGate };

struct PipelineConfig {
  BranchResolveStage branch_resolve = BranchResolveStage::kExecute;
  SpeculationPolicy speculation = SpeculationPolicy::kRollback;
  bool forwarding = true;  ///< false: stall until write-back (ablation)
};

struct PipelineStats {
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;  ///< retired (reaching WB)
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  std::uint64_t taken_control = 0;
  std::uint64_t control_flush_slots = 0;  ///< squashed wrong-path slots
  std::uint64_t load_use_stalls = 0;
  std::uint64_t interlock_stalls = 0;  ///< ID-resolution operand interlocks
  std::uint64_t raw_stalls = 0;        ///< no-forwarding hazard stalls
  std::uint64_t gate_stalls = 0;       ///< kGate fetch stalls
  std::uint64_t zolc_fetch_events = 0;
  std::uint64_t zolc_rollbacks = 0;
  std::uint64_t zolc_resolution_events = 0;
  std::uint64_t zolc_init_instructions = 0;  ///< retired zolw*/zolon/zoloff

  friend bool operator==(const PipelineStats&, const PipelineStats&) = default;
};

/// What the steady-state skip did over a pipeline's lifetime. Kept apart
/// from PipelineStats, which a skip leaves exactly as stepping would.
struct SkipStats {
  std::uint64_t engagements = 0;  ///< skips taken
  std::uint64_t iterations = 0;   ///< loop iterations skipped
  std::uint64_t cycles = 0;       ///< cycles charged in closed form

  friend bool operator==(const SkipStats&, const SkipStats&) = default;
};

class Pipeline {
 public:
  explicit Pipeline(mem::Memory& memory, PipelineConfig config = {});

  /// Attaches a loop controller (non-owning; may be nullptr).
  void set_accelerator(zolc::ZolcController* accel) noexcept {
    accel_ = accel;
    for (Moment& m : moments_) m.valid = false;
  }

  /// Attaches a decoded code image (non-owning; must outlive the
  /// pipeline). Fetches inside the image point the latches at its records;
  /// fetches outside it decode from memory. Only loops inside the image
  /// are skipped.
  void set_code_image(const DecodedImage& image);

  /// Observer called at write-back for every retired instruction (program
  /// order; wrong-path instructions never reach it). While one is attached,
  /// nothing is skipped.
  void set_retire_hook(RetireHook hook) { retire_hook_ = std::move(hook); }

  void set_pc(std::uint32_t pc) noexcept { pc_ = pc; }
  /// The next fetch PC.
  [[nodiscard]] std::uint32_t pc() const noexcept { return pc_; }
  [[nodiscard]] bool halted() const noexcept { return halted_; }

  [[nodiscard]] RegFile& regs() noexcept { return regs_; }
  [[nodiscard]] const RegFile& regs() const noexcept { return regs_; }
  [[nodiscard]] const PipelineStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const SkipStats& skip_stats() const noexcept {
    return skip_stats_;
  }
  [[nodiscard]] const PipelineConfig& config() const noexcept {
    return config_;
  }

  /// Runs until HALT retires or `max_cycles` elapse. Returns total cycles
  /// consumed by this call. Throws SimError if the limit is hit. The cycle
  /// loop is compiled once per configuration; run() picks config()'s.
  std::uint64_t run(std::uint64_t max_cycles);

 private:
  /// Fetch-time ZOLC event riding with the triggering instruction.
  struct FetchInfo {
    zolc::AccelEvent event;
    zolc::AccelSnapshot before;  ///< controller state before the event fired
  };

  /// Fetch events live in a ring the latches index by slot, so latches stay
  /// small. A stall blocks fetch, so at most three are live at once: the
  /// ones in IF/ID and ID/EX, and the one being fetched.
  static constexpr std::size_t kEventSlots = 3;
  static constexpr std::int8_t kNoEvent = -1;

  /// Fetches outside the code image decode into a ring of records. Every
  /// instruction still in flight when IF fetches came from one of the three
  /// fetches before it (a stage advance takes at most one fetch, and a stall
  /// holds IF/ID without fetching), so eight slots never overwrite a live
  /// record.
  static constexpr std::size_t kDecodedSlots = 8;

  // The latches point at the instruction's record (in the code image or the
  // decode ring) instead of copying it from stage to stage.
  struct IfId {
    bool valid = false;
    std::int8_t event = kNoEvent;  ///< fetch-event slot
    std::uint32_t pc = 0;
    const DecodedOp* op = nullptr;
  };

  struct IdEx {
    bool valid = false;
    std::int8_t event = kNoEvent;  ///< fetch-event slot
    std::uint32_t pc = 0;
    const DecodedOp* op = nullptr;
    std::int32_t rs_val = 0;
    std::int32_t rt_val = 0;
    std::int32_t rd_val = 0;
  };

  struct ExMem {
    bool valid = false;
    bool is_load = false;
    bool is_store = false;
    std::uint8_t dest = 0;  ///< 0: no register write
    std::uint32_t pc = 0;
    const DecodedOp* op = nullptr;
    std::int32_t alu = 0;
    std::int32_t store_val = 0;
  };

  struct MemWb {
    bool valid = false;
    std::uint8_t dest = 0;  ///< 0: no register write
    std::uint32_t pc = 0;
    const DecodedOp* op = nullptr;
    std::int32_t value = 0;
  };

  struct Latches {
    IfId if_id;
    IdEx id_ex;
    ExMem ex_mem;
    MemWb mem_wb;
  };

  [[nodiscard]] const FetchInfo& event_at(std::int8_t slot) const {
    return events_[static_cast<std::size_t>(slot)];
  }

  /// run() for configuration `C`, the one config_ holds, stepping every
  /// cycle (pipeline.cpp). The loops are aligned, so that their code keeps
  /// its cache-line offsets when other code moves.
  template <PipelineConfig C>
  [[gnu::aligned(64)]] std::uint64_t run_as(std::uint64_t max_cycles);
  /// run() for a run that can skip (steady.cpp): run_watching for config_.
  std::uint64_t run_skipping(std::uint64_t max_cycles);
  /// run_as that also watches ZOLC loop triggers and skips steady states.
  template <PipelineConfig C>
  [[gnu::aligned(64)]] std::uint64_t run_watching(std::uint64_t max_cycles);
  /// Advances one clock cycle; kSkip: watching as it goes (cycle.hpp).
  template <PipelineConfig C, bool kSkip>
  void cycle();

  // Stage helpers (operate on the previous-cycle latches `cur`).
  template <PipelineConfig C>
  [[nodiscard]] std::int32_t forward_to_ex(const Latches& cur, std::uint8_t reg,
                                           std::int32_t id_value) const;
  template <PipelineConfig C>
  [[nodiscard]] std::int32_t read_in_id(const Latches& cur,
                                        std::uint8_t reg) const;
  template <PipelineConfig C>
  [[nodiscard]] bool control_in_flight(const Latches& cur) const;
  /// Fills `ifi` with the instruction at pc_ and fires its fetch-time ZOLC
  /// event, if any, into the next ring slot. Returns the next fetch PC.
  template <bool kSkip>
  inline std::uint32_t fetch(const Latches& cur, IfId& ifi);

  // ---- steady-state skip (DESIGN.md 4.3), all off the per-cycle path ----

  /// Where the pipeline stands when a trigger sits in MEM/WB: the latch
  /// shape (valid bits as null or non-null records), the next fetch PC, the
  /// counters and the controller's dynamic state.
  struct Moment {
    bool valid = false;
    std::uint32_t trigger = 0;
    std::uint8_t task = 0;  ///< controller task after the trigger's event
    std::array<const DecodedOp*, 4> shape{};
    std::uint32_t pc = 0;
    PipelineStats stats;
    zolc::AccelSnapshot accel;
  };

  /// A trigger on its way to MEM/WB.
  struct Watch {
    std::uint32_t trigger = 0;
    std::uint64_t events = 0;   ///< stats_.zolc_fetch_events after its event
    std::uint64_t fetched = 0;  ///< stats_.cycles when it was fetched
  };

  /// A loop body's PC range [start, trigger] scanned once: clean when the
  /// image covers it and it holds no control, ZOLC, halt or invalid record;
  /// `dests` has a bit for every register its records write.
  struct BodyScan {
    std::uint32_t start = 0;
    std::uint32_t trigger = 0;
    bool clean = false;
    std::uint32_t dests = 0;
  };

  /// Called by fetch() at a redirecting event: asks the run loop to look at
  /// `trigger` when it reaches MEM/WB.
  void watch(std::uint32_t trigger, std::uint32_t target);
  /// The run loop's out-of-line check, at check_at_.
  void on_check();
  /// When to look for `w` in MEM/WB.
  [[nodiscard]] std::uint64_t arrival(const Watch& w) const;
  /// Records the moment with `trigger` in MEM/WB and, when it repeats the
  /// previous one of the same loop, skips.
  void at_trigger(std::uint32_t trigger);
  /// Skips the iterations that `now` and `prev` show to be steady; returns
  /// whether it did.
  bool try_skip(const Moment& prev, const Moment& now);
  [[nodiscard]] const BodyScan& scan_body(std::uint32_t start,
                                          std::uint32_t trigger);

  mem::Memory& mem_;
  PipelineConfig config_;
  RegFile regs_;
  const DecodedImage* image_ = nullptr;
  zolc::ZolcController* accel_ = nullptr;
  RetireHook retire_hook_;
  /// Double-buffered latches: each cycle reads latches_[cur_] and writes
  /// latches_[cur_ ^ 1] in place, then flips cur_.
  std::array<Latches, 2> latches_;
  std::uint8_t cur_ = 0;
  std::array<FetchInfo, kEventSlots> events_;
  std::uint8_t next_event_ = 0;  ///< ring slot the next fetch event takes
  std::array<DecodedOp, kDecodedSlots> decoded_;
  std::uint8_t next_decoded_ = 0;  ///< ring slot the next off-image fetch takes
  std::uint32_t pc_ = 0;
  bool halted_ = false;
  /// Tells the run loop to look: HALT retired, or a watch began.
  bool stop_ = false;
  PipelineStats stats_;

  // The skip's state, after the cycle loop's, so that theirs keep short
  // offsets.
  /// Four watches cover every trigger fetched while older ones are still
  /// in IF/ID, ID/EX or EX/MEM.
  static constexpr std::size_t kWatches = 4;
  static constexpr std::size_t kMoments = 4;
  static constexpr std::size_t kDeclined = 8;

  /// Watched triggers in fetch order, a ring from watch_head_.
  std::array<Watch, kWatches> watches_;
  std::uint8_t watch_head_ = 0;
  std::uint8_t watch_count_ = 0;
  /// stats_.cycles at which the run loop next leaves the cycle path: the
  /// cycle limit or, earlier, a watched trigger's arrival in MEM/WB.
  std::uint64_t check_at_ = 0;
  std::uint64_t limit_at_ = 0;  ///< stats_.cycles at which the limit traps
  std::uint8_t next_moment_ = 0;
  std::array<Moment, kMoments> moments_;
  std::vector<BodyScan> scans_;
  /// (trigger << 32 | target) of loops whose body scan failed, so fetch()
  /// stops watching them.
  std::array<std::uint64_t, kDeclined> declined_{};
  std::optional<Iss> iss_;  ///< replays skipped iterations, built on demand
  SkipStats skip_stats_;
};

}  // namespace zolcsim::cpu

#endif  // ZOLCSIM_CPU_PIPELINE_HPP
