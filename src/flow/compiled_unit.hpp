// CompiledUnit: the compile-time artifact of the staged toolchain.
//
// The evaluation flow of the paper is inherently staged -- lower a kernel
// for a machine/geometry, install the ZOLC tables, then run and measure.
// CompiledUnit captures what the compile stage produces for one
// (kernel, machine, geometry, env) point:
//
//   KIR build -> lower() -> Program -> DecodedImage
//
// and is immutable thereafter, so sweeps (and any other caller) can run the
// same unit against many pipeline configurations without paying the
// lowering/encoding/decode cost again. The zolcscan post-link analysis is
// not part of the unit: scan() derives it for the readers that ask. See
// flow/run.hpp for the runtime stage and flow/cache.hpp for keyed sharing
// across sweep cells.
#ifndef ZOLCSIM_FLOW_COMPILED_UNIT_HPP
#define ZOLCSIM_FLOW_COMPILED_UNIT_HPP

#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <string>

#include "cfg/zolcscan.hpp"
#include "codegen/lower.hpp"
#include "codegen/program.hpp"
#include "common/result.hpp"
#include "cpu/decoded.hpp"
#include "kernels/kernels.hpp"
#include "mem/memory.hpp"
#include "zolc/config.hpp"

namespace zolcsim::flow {

/// The "kernel (machine)" label every flow stage uses as its error context
/// frame (DESIGN.md sec. 5 documents the format as part of the contract).
[[nodiscard]] std::string unit_label(std::string_view kernel,
                                     codegen::MachineKind machine);

/// Everything that identifies one compile: the full cache key of a unit.
struct CompileSpec {
  std::string kernel;  ///< registry name (see kernels::find_kernel)
  codegen::MachineKind machine = codegen::MachineKind::kXrDefault;
  zolc::ZolcGeometry geometry;  ///< paper prototype by default
  kernels::KernelEnv env;

  /// Stable string key over every field (used by CompileCache).
  [[nodiscard]] std::string key() const;
};

/// The immutable compile-stage artifact. Construct via compile(); every
/// accessor is const and the underlying Program never changes.
class CompiledUnit {
 public:
  /// Compiles `spec.kernel` (looked up in the registries) for
  /// `spec.machine`/`spec.geometry`. Errors: kUnknownKernel, kBadConfig
  /// (invalid geometry, or an env whose scale overflows an instruction
  /// field), kInvalidKernel, kCapacity -- each carrying a "kernel (machine)"
  /// context frame.
  [[nodiscard]] static Result<CompiledUnit> compile(const CompileSpec& spec);

  /// Same, for a caller-owned kernel (must outlive the unit). Used by tests
  /// and tools that build ad-hoc kernels outside the registries.
  [[nodiscard]] static Result<CompiledUnit> compile(
      const kernels::Kernel& kernel, const CompileSpec& spec);

  [[nodiscard]] const kernels::Kernel& kernel() const noexcept {
    return *kernel_;
  }
  [[nodiscard]] const CompileSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] codegen::MachineKind machine() const noexcept {
    return spec_.machine;
  }
  [[nodiscard]] const zolc::ZolcGeometry& geometry() const noexcept {
    return spec_.geometry;
  }
  [[nodiscard]] const kernels::KernelEnv& env() const noexcept {
    return spec_.env;
  }

  [[nodiscard]] const codegen::Program& program() const noexcept {
    return program_;
  }
  /// The program's decoded records, which every engine reads on fetch.
  /// Built once by the constructor and shared (not deep-copied) across
  /// unit copies; valid while any copy of the unit is alive.
  [[nodiscard]] const cpu::DecodedImage& decoded() const noexcept {
    return *decoded_;
  }
  /// The zolcscan post-link analysis of the lowered code (candidate counted
  /// loops + rejection reasons) at this unit's geometry. Runs the scan on
  /// every call; no run or sweep needs it, so compile() does not.
  [[nodiscard]] cfg::ScanReport scan() const;

  /// The prepared memory image for this unit -- program words at
  /// env.code_base plus the kernel's deterministic input data
  /// (Kernel::setup) -- built on first use and cached for the unit's
  /// lifetime. Immutable once built: warm Workloads attach it as their
  /// copy-on-write baseline (mem::Memory::set_baseline) and must never
  /// write through it. Thread-safe; copies of the unit share the image.
  [[nodiscard]] std::shared_ptr<const mem::Memory> prepared_image() const;

  /// The bytes this unit keeps resident, as CompileCache charges them: its
  /// decoded records and code vector, plus the prepared image's pages once
  /// prepared_image() has built it. Thread-safe.
  [[nodiscard]] std::size_t resident_bytes() const noexcept;

  /// Full disassembly listing of the lowered program (one line per word).
  [[nodiscard]] std::string disassembly() const;

  /// The whole compile artifact as JSON: unit identity, program summary and
  /// encoded words, the ZOLC table image recovered from the init prologue
  /// (one {op, index, payload} record per zolw write), and scan() with
  /// typed rejection codes. `zolcsim compile --format=json` prints exactly
  /// this.
  [[nodiscard]] std::string to_json() const;

 private:
  // UnitStore reconstructs units from deserialized parts (bypassing the
  // compile pipeline) and must reach this constructor.
  friend class UnitStore;

  CompiledUnit(const kernels::Kernel& kernel, CompileSpec spec,
               codegen::Program program)
      : kernel_(&kernel),
        spec_(std::move(spec)),
        program_(std::move(program)),
        decoded_(std::make_shared<const cpu::DecodedImage>(program_.base,
                                                           program_.code)),
        image_slot_(std::make_shared<ImageSlot>()) {
    // Caches keep units resident until they are evicted; the lowering
    // leaves about a quarter of the code vector as spare capacity.
    program_.code.shrink_to_fit();
  }

  /// Lazily built prepared image; shared (not deep-copied) across unit
  /// copies -- the image depends only on the immutable program + env.
  struct ImageSlot {
    std::mutex mutex;
    std::shared_ptr<const mem::Memory> image;
    /// The image's pages once built, readable without the mutex.
    std::atomic<std::size_t> pages{0};
  };

  const kernels::Kernel* kernel_;  ///< non-owning; registry or caller-owned
  CompileSpec spec_;
  codegen::Program program_;
  std::shared_ptr<const cpu::DecodedImage> decoded_;
  std::shared_ptr<ImageSlot> image_slot_;
};

}  // namespace zolcsim::flow

#endif  // ZOLCSIM_FLOW_COMPILED_UNIT_HPP
