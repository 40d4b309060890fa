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
#ifndef ZOLCSIM_CPU_PIPELINE_HPP
#define ZOLCSIM_CPU_PIPELINE_HPP

#include <array>
#include <cstddef>
#include <cstdint>

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

class Pipeline {
 public:
  explicit Pipeline(mem::Memory& memory, PipelineConfig config = {});

  /// Attaches a loop controller (non-owning; may be nullptr).
  void set_accelerator(zolc::ZolcController* accel) noexcept {
    accel_ = accel;
  }

  /// Attaches a decoded code image (non-owning; must outlive the
  /// pipeline). Fetches inside the image point the latches at its records;
  /// fetches outside it decode from memory.
  void set_code_image(const DecodedImage& image) noexcept { image_ = &image; }

  /// Observer called at write-back for every retired instruction (program
  /// order; wrong-path instructions never reach it).
  void set_retire_hook(RetireHook hook) { retire_hook_ = std::move(hook); }

  void set_pc(std::uint32_t pc) noexcept { pc_ = pc; }
  [[nodiscard]] bool halted() const noexcept { return halted_; }

  [[nodiscard]] RegFile& regs() noexcept { return regs_; }
  [[nodiscard]] const RegFile& regs() const noexcept { return regs_; }
  [[nodiscard]] const PipelineStats& stats() const noexcept { return stats_; }
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

  /// run() for configuration `C`, the one config_ holds.
  template <PipelineConfig C>
  std::uint64_t run_as(std::uint64_t max_cycles);
  /// Advances one clock cycle.
  template <PipelineConfig C>
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
  inline std::uint32_t fetch(const Latches& cur, IfId& ifi);

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
  PipelineStats stats_;
};

}  // namespace zolcsim::cpu

#endif  // ZOLCSIM_CPU_PIPELINE_HPP
