// Bit-accurate ZOLC storage formats. These pack/unpack routines are the
// single source of truth shared by the controller (decoding init-mode
// writes) and the code generator (emitting init sequences), so the two can
// never disagree on a field layout. Field positions derive from a
// ZolcGeometry (DESIGN.md 4.1); with the default (paper) geometry the
// layouts and storage byte counts reproduce the paper exactly.
#ifndef ZOLCSIM_ZOLC_TABLES_HPP
#define ZOLCSIM_ZOLC_TABLES_HPP

#include <cstdint>

#include "zolc/config.hpp"

namespace zolcsim::zolc {

/// Loop-continuation condition: after the index update, the loop continues
/// iff `nest_cond_holds(cond, next_index, final)` (the event walk's
/// comparator; NestCond has the same encoding).
enum class LoopCond : std::uint8_t { kLt = 0, kLe = 1, kGt = 2, kGe = 3 };

/// Task selection LUT entry (one 32-bit init word). Generic layout, LSB
/// first: end_pc_ofs (pc_ofs_bits), loop_id, next_task_cont, next_task_done,
/// is_last, valid. Paper geometry (16/3/5 bits):
///   [15:0]  end_pc_ofs   word offset (from the activation base) of the last
///                        instruction of the task
///   [18:16] loop_id      loop tested at this boundary
///   [23:19] next_task_cont  task entered when the loop continues
///   [28:24] next_task_done  task entered when the loop completes
///   [29]    is_last      completing here leaves the outermost region
///   [30]    valid
///   [31]    reserved
struct TaskEntry {
  std::uint16_t end_pc_ofs = 0;
  std::uint8_t loop_id = 0;
  std::uint8_t next_task_cont = 0;
  std::uint8_t next_task_done = 0;
  bool is_last = false;
  bool valid = false;

  [[nodiscard]] std::uint32_t pack(
      const ZolcGeometry& geom = ZolcGeometry{}) const noexcept;
  [[nodiscard]] static TaskEntry unpack(
      std::uint32_t word, const ZolcGeometry& geom = ZolcGeometry{}) noexcept;

  friend bool operator==(const TaskEntry&, const TaskEntry&) = default;
};

/// Loop parameter table entry (64 bits = two init words; geometry-invariant,
/// only the entry *count* scales):
///   word0: [15:0] initial (signed), [31:16] final (signed)
///   word1: [7:0]  step (signed), [12:8] index_rf, [14:13] cond, [15] valid,
///          [31:16] reserved (the live index copy occupies these bits in
///          hardware; it is runtime state, not init-written)
struct LoopEntry {
  std::int16_t initial = 0;
  std::int16_t final = 0;
  std::int8_t step = 0;
  std::uint8_t index_rf = 0;
  LoopCond cond = LoopCond::kLt;
  bool valid = false;

  [[nodiscard]] std::uint32_t pack_word0() const noexcept;
  [[nodiscard]] std::uint32_t pack_word1() const noexcept;
  void unpack_word0(std::uint32_t word) noexcept;
  void unpack_word1(std::uint32_t word) noexcept;

  friend bool operator==(const LoopEntry&, const LoopEntry&) = default;
};

/// Candidate-exit record, ZOLCfull only. Generic layout, LSB first:
/// branch_pc_ofs (pc_ofs_bits), next_task, reinit_mask (max_loops bits),
/// valid, kind (bit0: deactivate, leaves the region). Records wider than one
/// init word spill into the hi word. Paper geometry (48 bits = 32 + 16):
///   lo: [15:0] branch_pc_ofs, [20:16] next_task, [28:21] reinit_mask,
///       [29] valid, [31:30] kind
///   hi: [15:0] reserved
struct ExitRecord {
  std::uint16_t branch_pc_ofs = 0;
  std::uint8_t next_task = 0;
  std::uint32_t reinit_mask = 0;
  bool valid = false;
  bool deactivate = false;

  [[nodiscard]] std::uint64_t pack64(
      const ZolcGeometry& geom = ZolcGeometry{}) const noexcept;
  [[nodiscard]] static ExitRecord unpack64(
      std::uint64_t bits, const ZolcGeometry& geom = ZolcGeometry{}) noexcept;

  [[nodiscard]] std::uint32_t pack_lo(
      const ZolcGeometry& geom = ZolcGeometry{}) const noexcept {
    return static_cast<std::uint32_t>(pack64(geom));
  }
  [[nodiscard]] std::uint32_t pack_hi(
      const ZolcGeometry& geom = ZolcGeometry{}) const noexcept {
    return static_cast<std::uint32_t>(pack64(geom) >> 32);
  }
  void unpack_lo(std::uint32_t word,
                 const ZolcGeometry& geom = ZolcGeometry{}) noexcept;
  void unpack_hi(std::uint32_t word,
                 const ZolcGeometry& geom = ZolcGeometry{}) noexcept;

  friend bool operator==(const ExitRecord&, const ExitRecord&) = default;
};

/// Multi-entry record, ZOLCfull only. Same generic layout as ExitRecord but
/// keyed on the transfer target and without the kind field. Paper geometry
/// (48 bits = 32 + 16):
///   lo: [15:0] entry_pc_ofs, [20:16] next_task, [28:21] reinit_mask,
///       [29] valid
///   hi: [15:0] reserved
struct EntryRecord {
  std::uint16_t entry_pc_ofs = 0;
  std::uint8_t next_task = 0;
  std::uint32_t reinit_mask = 0;
  bool valid = false;

  [[nodiscard]] std::uint64_t pack64(
      const ZolcGeometry& geom = ZolcGeometry{}) const noexcept;
  [[nodiscard]] static EntryRecord unpack64(
      std::uint64_t bits, const ZolcGeometry& geom = ZolcGeometry{}) noexcept;

  [[nodiscard]] std::uint32_t pack_lo(
      const ZolcGeometry& geom = ZolcGeometry{}) const noexcept {
    return static_cast<std::uint32_t>(pack64(geom));
  }
  [[nodiscard]] std::uint32_t pack_hi(
      const ZolcGeometry& geom = ZolcGeometry{}) const noexcept {
    return static_cast<std::uint32_t>(pack64(geom) >> 32);
  }
  void unpack_lo(std::uint32_t word,
                 const ZolcGeometry& geom = ZolcGeometry{}) noexcept;
  void unpack_hi(std::uint32_t word,
                 const ZolcGeometry& geom = ZolcGeometry{}) noexcept;

  friend bool operator==(const EntryRecord&, const EntryRecord&) = default;
};

/// uZOLC register file indices for zolw.u (six 32-bit data registers plus
/// three 16-bit control registers; DESIGN.md 4.1).
enum class MicroReg : std::uint8_t {
  kInitial = 0,
  kFinal = 1,
  kStep = 2,
  kCurrent = 3,
  kStartPc = 4,
  kEndPc = 5,
  kCtrl = 6,   ///< [4:0] index_rf, [6:5] cond
  kCount = 7,  ///< reserved
  kStatus = 8, ///< reserved
};

inline constexpr unsigned kMicroRegCount = 9;

/// Packs the uZOLC control register payload.
[[nodiscard]] std::uint32_t pack_micro_ctrl(std::uint8_t index_rf,
                                            LoopCond cond) noexcept;

}  // namespace zolcsim::zolc

#endif  // ZOLCSIM_ZOLC_TABLES_HPP
