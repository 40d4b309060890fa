// ZOLC hardware variants and their table geometry (Section 3 of the paper):
//   uZOLC    -- single-loop controller, no task sequencing
//   ZOLClite -- task-sequenced, single-entry/exit loops only
//   ZOLCfull -- ZOLClite + candidate-exit and multi-entry records
//
// The paper's evaluation prototype is one point of a design space: 32 task
// entries, 8 loops, 4 exits+entries per loop. ZolcGeometry makes that point a
// runtime parameter so deeper/wider loop structures can be explored; the
// default-constructed geometry is the paper configuration, and every packed
// field layout and storage byte count reproduces DESIGN.md 4.1 exactly for
// it.
#ifndef ZOLCSIM_ZOLC_CONFIG_HPP
#define ZOLCSIM_ZOLC_CONFIG_HPP

#include <cstdint>
#include <string>
#include <string_view>

#include "common/bitutil.hpp"

namespace zolcsim::zolc {

enum class ZolcVariant : std::uint8_t { kMicro, kLite, kFull };

constexpr std::string_view variant_name(ZolcVariant variant) noexcept {
  switch (variant) {
    case ZolcVariant::kMicro: return "uZOLC";
    case ZolcVariant::kLite:  return "ZOLClite";
    case ZolcVariant::kFull:  return "ZOLCfull";
  }
  return "?";
}

/// Upper bound on `max_loops` for any geometry: the loop-index snapshot
/// that rolls back a speculative fetch event (AccelSnapshot) and the reinit
/// masks in exit/entry records are sized for it.
inline constexpr unsigned kMaxGeometryLoops = 32;

/// Runtime ZOLC table geometry. Counts size the tables; the id/offset field
/// widths of every packed storage word derive from them (DESIGN.md 4.1).
/// Default-constructed = the paper's ZOLCfull prototype.
struct ZolcGeometry {
  unsigned max_tasks = 32;            ///< task selection LUT entries
  unsigned max_loops = 8;             ///< loop parameter table entries
  unsigned max_exits_per_loop = 4;    ///< candidate-exit records per loop
  unsigned max_entries_per_loop = 4;  ///< multi-entry records per loop
  unsigned pc_ofs_bits = 16;          ///< width of word-offset PC fields

  // ---- derived field widths ----
  [[nodiscard]] constexpr unsigned task_id_bits() const noexcept {
    return bits_for_values(max_tasks < 2 ? 2 : max_tasks);
  }
  [[nodiscard]] constexpr unsigned loop_id_bits() const noexcept {
    return bits_for_values(max_loops < 2 ? 2 : max_loops);
  }
  /// Bits used by a packed task entry (one init word + valid/is_last).
  [[nodiscard]] constexpr unsigned task_entry_bits() const noexcept {
    return pc_ofs_bits + loop_id_bits() + 2 * task_id_bits() + 2;
  }
  /// Bits used by a packed exit record (pc, task, reinit mask, valid, kind).
  [[nodiscard]] constexpr unsigned exit_record_bits() const noexcept {
    return pc_ofs_bits + task_id_bits() + max_loops + 3;
  }
  /// Init words needed per exit/entry record (1 or 2).
  [[nodiscard]] constexpr unsigned record_words() const noexcept {
    return exit_record_bits() <= 32 ? 1u : 2u;
  }

  [[nodiscard]] constexpr unsigned exit_record_count() const noexcept {
    return max_loops * max_exits_per_loop;
  }
  [[nodiscard]] constexpr unsigned entry_record_count() const noexcept {
    return max_loops * max_entries_per_loop;
  }

  /// True iff every table index and packed field fits its storage word and
  /// the CPU-side snapshot/mask machinery can carry the loop count.
  [[nodiscard]] constexpr bool valid() const noexcept {
    return max_loops >= 1 && max_loops <= kMaxGeometryLoops &&
           max_tasks <= 256 &&
           max_exits_per_loop <= 8 && max_entries_per_loop <= 8 &&
           pc_ofs_bits >= 8 && pc_ofs_bits <= 16 &&
           task_entry_bits() <= 32 && exit_record_bits() <= 64 &&
           exit_record_count() <= 256 && entry_record_count() <= 256;
  }

  /// The paper's prototype geometry for each hardware variant.
  [[nodiscard]] static constexpr ZolcGeometry paper(
      ZolcVariant variant) noexcept {
    switch (variant) {
      case ZolcVariant::kMicro: return {0, 1, 0, 0, 16};
      case ZolcVariant::kLite:  return {32, 8, 0, 0, 16};
      case ZolcVariant::kFull:  return {32, 8, 4, 4, 16};
    }
    return {};
  }

  /// This geometry with the tables the variant does not implement removed
  /// (uZOLC has no tables at all; ZOLClite has no exit/entry records).
  [[nodiscard]] constexpr ZolcGeometry for_variant(
      ZolcVariant variant) const noexcept {
    switch (variant) {
      case ZolcVariant::kMicro:
        return {0, 1, 0, 0, pc_ofs_bits};
      case ZolcVariant::kLite:
        return {max_tasks, max_loops, 0, 0, pc_ofs_bits};
      case ZolcVariant::kFull:
        return *this;
    }
    return *this;
  }

  /// Compact CSV-friendly label, e.g. "32t-8l-4x-4e"; a non-default PC
  /// offset width is appended ("-p14") so geometries differing only there
  /// stay distinguishable in reports and error messages.
  [[nodiscard]] std::string label() const {
    std::string s = std::to_string(max_tasks) + "t-" +
                    std::to_string(max_loops) + "l-" +
                    std::to_string(max_exits_per_loop) + "x-" +
                    std::to_string(max_entries_per_loop) + "e";
    if (pc_ofs_bits != 16) s += "-p" + std::to_string(pc_ofs_bits);
    return s;
  }

  friend constexpr bool operator==(const ZolcGeometry&,
                                   const ZolcGeometry&) = default;
};

}  // namespace zolcsim::zolc

#endif  // ZOLCSIM_ZOLC_CONFIG_HPP
