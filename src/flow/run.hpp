// The runtime stage and its vocabulary: executes a CompiledUnit on the
// cycle-accurate pipeline or the functional ISS under a RunPlan and returns
// one verified ExperimentResult. run() is the cheap, repeatable half of the
// staged toolchain -- one CompiledUnit can be run under any number of plans
// without recompiling.
//
// There is one run path: a fresh-workload run, and every tenant of a
// multi-tenant run, starts from a copy-on-write view of the unit's cached
// prepared image (Workload::prepare_warm), and timing reps restore it with an
// O(dirty-pages) reset. Workload::prepare, the cold build, stays as the
// reference the tests compare that path against. The tenant scheduler lives
// here too -- one slicing loop, of which a preempted single run is the
// one-tenant case -- so the context-switch accounting, reported alongside
// cycles and never folded into them, sits in one file.
#ifndef ZOLCSIM_FLOW_RUN_HPP
#define ZOLCSIM_FLOW_RUN_HPP

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "cpu/pipeline.hpp"
#include "cpu/summary.hpp"
#include "flow/compiled_unit.hpp"
#include "flow/workload.hpp"
#include "zolc/context.hpp"

namespace zolcsim::flow {

/// Which simulator executes a run.
enum class SimEngine : std::uint8_t {
  kPipeline,  ///< cycle-accurate 5-stage pipeline (the default)
  kIss,       ///< functional ISS (1 instruction per cycle by construction)
};

/// Execution mode of a run: the engine, plus (for the ISS) whether the
/// loop-summary fast path (DESIGN.md section 7) is enabled. The fast path
/// is architecturally invisible, so "iss" and "iss-fast" cells must agree
/// on every reported statistic -- the scenario runner cross-checks this.
struct ExecMode {
  SimEngine engine = SimEngine::kPipeline;
  bool fast_path = false;  ///< ISS only; ignored for the pipeline

  friend bool operator==(const ExecMode&, const ExecMode&) = default;
};

/// "pipeline" | "iss" | "iss-fast" -- the sweep emitters' mode column.
[[nodiscard]] std::string_view mode_name(const ExecMode& mode);

struct ExperimentResult {
  std::string kernel;
  codegen::MachineKind machine = codegen::MachineKind::kXrDefault;
  zolc::ZolcGeometry geometry;    ///< ZOLC geometry the cell ran against
  ExecMode mode;                  ///< engine + fast-path the cell ran under
  cpu::PipelineStats stats;       ///< ISS runs report cycles == instructions
  zolc::ZolcStats zolc_stats;     ///< zeros for non-ZOLC machines
  cpu::FastPathStats fastpath;    ///< all-zero unless mode is iss-fast
  cpu::SkipStats skip;            ///< the pipeline's steady-state skips
  unsigned init_instructions = 0; ///< ZOLC init prologue length
  unsigned hw_loops = 0;
  unsigned sw_loops = 0;
  std::size_t code_words = 0;
  std::vector<std::string> notes;
  /// Host wall time of the simulation itself (not the compile). Feeds the
  /// BENCH_*.json MIPS figures only -- never the deterministic CSV/JSON
  /// report emitters, which must stay byte-identical across hosts.
  std::uint64_t wall_ns = 0;
  /// Timing reps that restored the copy-on-write image with an O(dirty)
  /// reset instead of re-running Kernel::setup. BENCH-artifact material
  /// only, like wall_ns -- never part of the deterministic emitters.
  std::uint64_t image_resets = 0;
  /// Multi-tenant / preemption accounting: workloads time-sliced over one
  /// controller, context switches performed, and their modeled cost in
  /// cycles (init-bus words moved; DESIGN.md section 9). The cost is
  /// reported alongside -- never folded into -- stats.cycles, so preempted
  /// runs stay cycle-identical to uninterrupted ones and the tenant CSV
  /// columns surface the overhead as its own figure.
  unsigned tenants = 1;
  std::uint64_t context_switches = 0;
  std::uint64_t context_switch_cycles = 0;
};

/// Runtime-stage parameters: everything that varies per run of the same
/// compiled unit.
struct RunPlan {
  cpu::PipelineConfig config;
  std::uint64_t max_cycles = 200'000'000;
  /// Execution mode: pipeline (default), ISS, or ISS with the loop-summary
  /// fast path. ISS runs ignore `config` and report cycles == instructions
  /// (the functional model is 1-CPI by construction); `max_cycles` bounds
  /// the instruction count instead.
  ExecMode mode;
  /// Wall-clock repetitions for the fresh-Workload overload: the simulation
  /// runs this many times on identical initial state and wall_ns reports
  /// the minimum. Architectural results and statistics come from a single
  /// run -- they are rep-invariant. Use >1 when a cell is too short for
  /// one-shot timing (MIPS thresholds, bench artifacts); ignored by the
  /// caller-prepared-Workload overload.
  std::uint64_t timing_reps = 1;
  /// Slice length, in instructions, of the one tenant scheduler: non-zero
  /// sends even a single-tenant run through it, so the controller's full
  /// context is saved, clobbered with reset() and restored between every
  /// two slices. 0 leaves a single run uninterrupted and gives multi-tenant
  /// runs a 4096-instruction quantum. Architecturally invisible -- the
  /// differential tests pin bit-identical results -- and set only by the
  /// library and its tests; no CLI flag, suite member or serve member
  /// reaches it.
  std::uint64_t preempt_every = 0;
  /// Identical workloads time-sliced round-robin over one controller by
  /// the fresh-Workload run() overload, each verified against the golden
  /// reference; the result sums their statistics. ISS only; timing_reps
  /// are not applied to tenant cells, and max_cycles bounds each tenant.
  unsigned tenants = 1;
};

/// Runs `unit` on a fresh Workload; every engine fetches through the unit's
/// decoded() image. A plan with `tenants` != 1 or a non-zero
/// `preempt_every` runs on the tenant scheduler (ISS only; timing_reps not
/// applied). Failure modes: kSimulation (trap or cycle budget),
/// kVerifyMismatch (outputs differ from the golden reference; always a
/// bug, never a reportable data point) and kBadConfig (the scheduler under
/// the pipeline engine, zero tenants).
[[nodiscard]] Result<ExperimentResult> run(const CompiledUnit& unit,
                                           const RunPlan& plan = {});

/// Same, against a caller-prepared Workload (consumed: the run mutates its
/// memory, and verify() is called on it afterwards). One uninterrupted
/// run: `tenants` != 1 or a non-zero `preempt_every` is kBadConfig.
[[nodiscard]] Result<ExperimentResult> run(const CompiledUnit& unit,
                                           Workload& workload,
                                           const RunPlan& plan = {});

}  // namespace zolcsim::flow

#endif  // ZOLCSIM_FLOW_RUN_HPP
