// Batched sweep engine: declaratively describes a kernel x machine x
// pipeline-config x ZOLC-geometry x execution-mode x tenant-count
// experiment grid and executes it on a worker pool.
//
// Determinism: cells are indexed kernel-major (the sweep_axes() order) and
// each worker writes only its claimed cell, so the report -- and everything
// rendered from it -- is byte-identical for any thread count. A sweep that
// leaves a gated axis (geometry, mode, tenants) at its default renders
// exactly as a pre-axis sweep did (no extra CSV column).
#ifndef ZOLCSIM_HARNESS_SWEEP_HPP
#define ZOLCSIM_HARNESS_SWEEP_HPP

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "flow/run.hpp"

namespace zolcsim::flow {
class CompileCache;
}

namespace zolcsim::harness {

/// The experiment grid. Empty dimension = the engine's default for it
/// (all registry kernels / all machines / the default pipeline config).
struct SweepSpec {
  std::vector<std::string> kernels;
  std::vector<codegen::MachineKind> machines;
  std::vector<cpu::PipelineConfig> configs;
  /// ZOLC geometry axis; empty = the paper-default geometry only.
  std::vector<zolc::ZolcGeometry> geometries;
  /// Execution-mode axis (pipeline / iss / iss-fast); empty = pipeline only.
  std::vector<flow::ExecMode> modes;
  /// Tenant-count axis: N workloads time-sliced over one controller
  /// (RunPlan::tenants). Empty = single-tenant only; counts > 1 require
  /// every mode on the ISS engine (kBadConfig otherwise).
  std::vector<unsigned> tenants;
  kernels::KernelEnv env;
  codegen::MachineKind baseline = codegen::MachineKind::kXrDefault;
  std::uint64_t max_cycles = 200'000'000;
  unsigned threads = 0;  ///< 0 = hardware concurrency
  /// Timing repetitions per cell (RunPlan::timing_reps): wall_ns keeps the
  /// minimum over this many identical runs. Use >1 for suites whose cells
  /// are too short for stable one-shot MIPS.
  std::uint64_t timing_reps = 1;
  /// Preempt-anywhere execution knob (RunPlan::preempt_every): every ISS
  /// cell is preempted at this instruction interval with a full context
  /// save/clobber/restore. Architecturally invisible -- the differential
  /// tests pin that a preempted sweep renders byte-identical CSVs -- and
  /// requires ISS modes when set.
  std::uint64_t preempt_every = 0;
};

/// One point of the grid: an index into each of the report's resolved axis
/// vectors.
struct CellCoord {
  std::size_t kernel = 0;
  std::size_t machine = 0;
  std::size_t config = 0;
  std::size_t geometry = 0;
  std::size_t mode = 0;
  std::size_t tenant = 0;

  friend bool operator==(const CellCoord&, const CellCoord&) = default;
};

struct SweepCell {
  CellCoord coord;
  flow::ExperimentResult result;
};

struct SweepReport;

/// The axes of the grid, in cell-index order (kernel-major).
enum class Axis : std::uint8_t {
  kKernel,
  kMachine,
  kConfig,
  kGeometry,
  kMode,
  kTenant
};
inline constexpr std::size_t kNumAxes = 6;

/// One axis of the grid, described once for every consumer: the CLI sweep
/// flags, the scenario-suite parser, the CSV/JSON/BENCH emitters, `bench
/// --compare` and the threshold lookup.
struct SweepAxis {
  Axis id;
  std::string_view flag;    ///< `zolcsim sweep --<flag>=` and suite member
  std::string_view column;  ///< CSV/JSON column and BENCH point field
  std::size_t CellCoord::*coord;  ///< this axis's index in a CellCoord
  std::size_t (*size)(const SweepReport& report);
  /// The string form of the report's index-th point on this axis -- the
  /// form the axis parser accepts, so reports and inputs round-trip.
  std::string (*label)(const SweepReport& report, std::size_t index);
  /// Column gate. Empty: the column is always present. Otherwise the label
  /// of the axis's default point; a report whose only point on the axis is
  /// the default omits the column from CSV/JSON, and from BENCH points
  /// unless `bench_always`.
  std::string default_label;
  bool bench_always = true;
  bool numeric = false;  ///< JSON and BENCH render the label unquoted
};

/// The axes in Axis order.
[[nodiscard]] const std::array<SweepAxis, kNumAxes>& sweep_axes();

[[nodiscard]] inline const SweepAxis& sweep_axis(Axis id) {
  return sweep_axes()[static_cast<std::size_t>(id)];
}

/// Per-axis labels in Axis order; an empty label selects the axis's first
/// point.
using AxisLabels = std::array<std::string, kNumAxes>;

/// Order-stable sweep output: cells are stored in index_of() order.
struct SweepReport {
  std::vector<std::string> kernels;             ///< resolved kernel names
  std::vector<codegen::MachineKind> machines;   ///< resolved machine set
  std::vector<cpu::PipelineConfig> configs;     ///< resolved config grid
  std::vector<zolc::ZolcGeometry> geometries;   ///< resolved geometry axis
  std::vector<flow::ExecMode> modes;            ///< resolved mode axis
  std::vector<unsigned> tenants;                ///< resolved tenant axis
  codegen::MachineKind baseline = codegen::MachineKind::kXrDefault;
  std::vector<SweepCell> cells;

  /// Compile-cache counters for the sweep: `compile_cache_misses` is the
  /// number of units not already in memory (exactly one per distinct
  /// (kernel, machine, geometry) point that ran), `compile_cache_hits` the
  /// number of cells that reused one, and `compile_cache_compiles` the
  /// compiles performed, which equals the misses. Not part of the CSV/JSON
  /// emitters.
  std::size_t compile_cache_hits = 0;
  std::size_t compile_cache_misses = 0;
  std::size_t compile_cache_compiles = 0;

  /// Copy-on-write image resets summed over all cells (see
  /// ExperimentResult). BENCH-artifact material, not part of the CSV/JSON
  /// emitters.
  std::uint64_t image_resets = 0;

  /// Position of `coord` in `cells` (mixed radix over sweep_axes()), and
  /// its inverse.
  [[nodiscard]] std::size_t index_of(const CellCoord& coord) const;
  [[nodiscard]] CellCoord coord_of(std::size_t index) const;

  [[nodiscard]] const flow::ExperimentResult& at(
      const CellCoord& coord) const;

  /// Lookup by labels, e.g. find({"fir", "ZOLClite"}); nullptr when the
  /// cell is not in the grid.
  [[nodiscard]] const flow::ExperimentResult* find(
      const AxisLabels& labels) const;

  /// %-reduction of the cell vs the baseline machine at the same config,
  /// geometry, mode, and tenant count. 0 when the baseline machine is not
  /// part of the sweep.
  [[nodiscard]] double reduction(const CellCoord& coord) const;

  /// True iff the CSV/JSON emitters carry `axis`'s column: always for
  /// ungated axes, otherwise only when the axis left its default.
  [[nodiscard]] bool shown(const SweepAxis& axis) const;

  /// The axes whose columns the emitters carry, in Axis order: the CSV/JSON
  /// report's, or with `bench` the BENCH points'.
  [[nodiscard]] std::vector<const SweepAxis*> columns(bool bench) const;

  /// The axis members of a JSON cell object, `"column": label, ` for each
  /// of `columns` at `coord`.
  [[nodiscard]] std::string json_axis_members(
      const std::vector<const SweepAxis*>& columns,
      const CellCoord& coord) const;

  /// Full grid as CSV (one row per cell) / JSON (meta + cell array).
  [[nodiscard]] std::string to_csv() const;
  [[nodiscard]] std::string to_json() const;
};

/// Short human-readable name for a pipeline config, e.g.
/// "EX-resolve/rollback" (suffix "/nofwd" without forwarding).
[[nodiscard]] std::string config_name(const cpu::PipelineConfig& config);

/// Executes the sweep against a caller-supplied compile cache, so several
/// sweeps (CLI invocations, scenario suites) share one set of warm units.
/// The report's cache counters are the delta this sweep contributed, not the
/// cache's lifetime totals. Any failing cell (lowering, simulation, or
/// output verification) fails the whole sweep with the lowest-index cell's
/// error.
[[nodiscard]] Result<SweepReport> run_sweep(const SweepSpec& spec,
                                            flow::CompileCache& cache);

/// Convenience overload for one-shot sweeps: a private cache per call.
[[nodiscard]] Result<SweepReport> run_sweep(const SweepSpec& spec);

}  // namespace zolcsim::harness

#endif  // ZOLCSIM_HARNESS_SWEEP_HPP
