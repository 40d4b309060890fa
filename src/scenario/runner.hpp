// Scenario runner: lowers a parsed Suite onto the batched sweep engine,
// verifies the suite's expectations (golden CSV digest, per-cell perf
// thresholds), and renders the versioned BENCH_<suite>.json perf artifact
// that gives the roadmap's perf trajectory its data points. The runner
// never owns a CompileCache -- callers (zolcsim, the serve daemon) pass a
// process-wide cache so consecutive suites share warm units.
#ifndef ZOLCSIM_SCENARIO_RUNNER_HPP
#define ZOLCSIM_SCENARIO_RUNNER_HPP

#include <cstdint>
#include <string>
#include <string_view>

#include "flow/cache.hpp"
#include "scenario/scenario.hpp"

namespace zolcsim::scenario {

/// Current BENCH artifact schema ("schema" field), the only one `zolcsim
/// bench --compare` reads. v4 added the per-point "tenants" /
/// "ctx_switches" / "ctx_switch_cycles" fields for multi-tenant suites.
inline constexpr std::string_view kBenchSchema = "zolcsim-bench-v4";

struct RunOptions {
  unsigned threads = 0;  ///< sweep worker count; 0 = hardware
};

/// Everything a completed suite produced. `csv` is the deterministic
/// paper-default sweep CSV (the goldened artifact); wall time and MIPS are
/// host measurements that feed only the BENCH json.
struct SuiteOutcome {
  Suite suite;
  harness::SweepReport report;
  std::string csv;
  std::uint64_t csv_fnv1a64 = 0;
  bool golden_checked = false;  ///< an expected digest existed and matched
  double wall_seconds = 0.0;    ///< whole-suite wall time (compile + run)
  double mips = 0.0;            ///< simulated instructions / wall / 1e6
};

/// Runs the suite's grid. Errors: everything run_sweep can fail with, plus
/// kVerifyMismatch when the rendered CSV's digest differs from the suite's
/// golden or the iss and iss-fast cells disagree, and kThreshold when a
/// per-cell expectation is violated.
[[nodiscard]] Result<SuiteOutcome> run_suite(const Suite& suite,
                                             flow::CompileCache& cache,
                                             const RunOptions& options = {});

/// "BENCH_<suite>.json" -- the artifact file name for a suite.
[[nodiscard]] std::string bench_artifact_name(const Suite& suite);

/// Renders the versioned BENCH artifact: suite identity, build provenance
/// (git sha, toolchain), whole-suite wall time / MIPS / compile-cache hit
/// rate, and one point per sweep cell with cycles + host MIPS.
[[nodiscard]] std::string bench_artifact_json(const SuiteOutcome& outcome);

/// Build provenance baked in at configure time ("unknown" outside git).
[[nodiscard]] std::string_view build_git_sha();
/// Compiler identity, e.g. "gcc 13.2.0".
[[nodiscard]] std::string build_toolchain();

}  // namespace zolcsim::scenario

#endif  // ZOLCSIM_SCENARIO_RUNNER_HPP
