// Lowered program image plus the machine-configuration taxonomy of the
// paper's evaluation (Section 3).
#ifndef ZOLCSIM_CODEGEN_PROGRAM_HPP
#define ZOLCSIM_CODEGEN_PROGRAM_HPP

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "isa/instruction.hpp"
#include "mem/memory.hpp"
#include "zolc/config.hpp"

namespace zolcsim::codegen {

/// Machine configurations evaluated in the paper.
enum class MachineKind : std::uint8_t {
  kXrDefault,  ///< unmodified core: software loops
  kXrHrdwil,   ///< branch-decrement (dbne) loop back-edges
  kUZolc,      ///< core + uZOLC (single hardware loop)
  kZolcLite,   ///< core + ZOLClite
  kZolcFull,   ///< core + ZOLCfull
};

[[nodiscard]] constexpr std::string_view machine_name(
    MachineKind kind) noexcept {
  switch (kind) {
    case MachineKind::kXrDefault: return "XRdefault";
    case MachineKind::kXrHrdwil:  return "XRhrdwil";
    case MachineKind::kUZolc:     return "uZOLC";
    case MachineKind::kZolcLite:  return "ZOLClite";
    case MachineKind::kZolcFull:  return "ZOLCfull";
  }
  return "?";
}

/// The ZOLC variant a machine carries, if any.
[[nodiscard]] constexpr std::optional<zolc::ZolcVariant> machine_zolc_variant(
    MachineKind kind) noexcept {
  switch (kind) {
    case MachineKind::kUZolc:    return zolc::ZolcVariant::kMicro;
    case MachineKind::kZolcLite: return zolc::ZolcVariant::kLite;
    case MachineKind::kZolcFull: return zolc::ZolcVariant::kFull;
    default:                     return std::nullopt;
  }
}

inline constexpr MachineKind kAllMachines[] = {
    MachineKind::kXrDefault, MachineKind::kXrHrdwil, MachineKind::kUZolc,
    MachineKind::kZolcLite, MachineKind::kZolcFull};

/// A lowered, runnable program (terminated by halt).
struct Program {
  std::uint32_t base = 0;
  std::vector<isa::Instruction> code;
  MachineKind machine = MachineKind::kXrDefault;

  unsigned init_instructions = 0;  ///< ZOLC init prologue length (incl. li's)
  unsigned hw_loop_count = 0;      ///< loops managed by ZOLC hardware
  unsigned sw_loop_count = 0;      ///< loops lowered to software
  std::vector<std::string> notes;  ///< fallback / demotion decisions

  /// Encodes and loads the image into simulator memory at `base`.
  void load_into(mem::Memory& memory) const;

  [[nodiscard]] std::size_t size_words() const noexcept { return code.size(); }
};

}  // namespace zolcsim::codegen

#endif  // ZOLCSIM_CODEGEN_PROGRAM_HPP
