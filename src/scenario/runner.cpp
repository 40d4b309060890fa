#include "scenario/runner.hpp"

#include <chrono>
#include <optional>

#include "common/json.hpp"
#include "common/strings.hpp"

namespace zolcsim::scenario {

namespace {

/// Simulated MIPS of one cell: simulated instructions over host wall time.
double cell_mips(const flow::ExperimentResult& r) {
  if (r.wall_ns == 0) return 0.0;
  return static_cast<double>(r.stats.instructions) /
         (static_cast<double>(r.wall_ns) * 1e-9) / 1e6;
}

/// The loop-summary fast path must be architecturally invisible: wherever
/// the sweep ran both "iss" and "iss-fast", the two cells must agree on
/// every deterministic statistic. A difference is always a simulator bug.
Result<void> check_mode_equivalence(const Suite& suite,
                                    const harness::SweepReport& report) {
  std::optional<std::size_t> iss;
  std::optional<std::size_t> fast;
  for (std::size_t x = 0; x < report.modes.size(); ++x) {
    if (report.modes[x].engine != flow::SimEngine::kIss) continue;
    (report.modes[x].fast_path ? fast : iss) = x;
  }
  if (!iss || !fast) return {};
  for (const harness::SweepCell& cell : report.cells) {
    if (cell.coord.mode != *iss) continue;
    harness::CellCoord twin = cell.coord;
    twin.mode = *fast;
    const flow::ExperimentResult& a = cell.result;
    const flow::ExperimentResult& b = report.at(twin);
    const bool equal = a.stats.cycles == b.stats.cycles &&
                       a.stats.instructions == b.stats.instructions &&
                       a.stats.taken_control == b.stats.taken_control &&
                       a.stats.zolc_fetch_events == b.stats.zolc_fetch_events &&
                       a.zolc_stats == b.zolc_stats;
    if (!equal) {
      return Error{ErrorCode::kVerifyMismatch,
                   a.kernel + " on " +
                       std::string(codegen::machine_name(a.machine)) +
                       ": iss and iss-fast cells disagree (fast path is not "
                       "architecturally invisible)"}
          .with_context("suite " + suite.name);
    }
  }
  return {};
}

Result<void> check_thresholds(const Suite& suite,
                              const harness::SweepReport& report) {
  for (const Threshold& t : suite.thresholds) {
    const flow::ExperimentResult* cell = report.find(
        {t.kernel, t.machine, t.config, t.geometry, t.mode, ""});
    if (cell == nullptr) {
      return Error{ErrorCode::kBadConfig,
                   "threshold names a cell outside the grid: " + t.kernel +
                       " on " + t.machine}
          .with_context("suite " + suite.name);
    }
    if (t.max_cycles != 0 && cell->stats.cycles > t.max_cycles) {
      return Error{ErrorCode::kThreshold,
                   t.kernel + " on " + t.machine + ": " +
                       std::to_string(cell->stats.cycles) +
                       " cycles exceeds the threshold of " +
                       std::to_string(t.max_cycles)}
          .with_context("suite " + suite.name);
    }
    if (t.min_mips > 0.0 && cell_mips(*cell) < t.min_mips) {
      return Error{ErrorCode::kThreshold,
                   t.kernel + " on " + t.machine + ": " +
                       format_fixed(cell_mips(*cell), 2) +
                       " MIPS below the threshold of " +
                       format_fixed(t.min_mips, 2)}
          .with_context("suite " + suite.name);
    }
  }
  return {};
}

}  // namespace

Result<SuiteOutcome> run_suite(const Suite& suite, flow::CompileCache& cache,
                               const RunOptions& options) {
  SuiteOutcome outcome;
  outcome.suite = suite;

  harness::SweepSpec spec = suite.sweep;
  spec.threads = options.threads;

  const auto started = std::chrono::steady_clock::now();
  auto swept = harness::run_sweep(spec, cache);
  if (!swept.ok()) {
    return std::move(swept).error().with_context("suite " + suite.name);
  }
  outcome.report = std::move(swept).value();
  outcome.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    started)
          .count();

  outcome.csv = outcome.report.to_csv();
  outcome.csv_fnv1a64 = fnv1a64(outcome.csv);
  if (suite.expect_csv_fnv1a64) {
    if (*suite.expect_csv_fnv1a64 != outcome.csv_fnv1a64) {
      return Error{ErrorCode::kVerifyMismatch,
                   "CSV digest " + hex64(outcome.csv_fnv1a64) +
                       " differs from the golden " +
                       hex64(*suite.expect_csv_fnv1a64)}
          .with_context("suite " + suite.name);
    }
    outcome.golden_checked = true;
  }

  if (auto equal = check_mode_equivalence(suite, outcome.report);
      !equal.ok()) {
    return std::move(equal).error();
  }

  if (auto checked = check_thresholds(suite, outcome.report); !checked.ok()) {
    return std::move(checked).error();
  }

  std::uint64_t instructions = 0;
  for (const harness::SweepCell& cell : outcome.report.cells) {
    instructions += cell.result.stats.instructions;
  }
  if (outcome.wall_seconds > 0.0) {
    outcome.mips =
        static_cast<double>(instructions) / outcome.wall_seconds / 1e6;
  }
  return outcome;
}

std::string bench_artifact_name(const Suite& suite) {
  return "BENCH_" + suite.name + ".json";
}

std::string bench_artifact_json(const SuiteOutcome& outcome) {
  const harness::SweepReport& report = outcome.report;
  const std::size_t total_compiles =
      report.compile_cache_hits + report.compile_cache_misses;
  const double hit_rate =
      total_compiles == 0
          ? 0.0
          : static_cast<double>(report.compile_cache_hits) /
                static_cast<double>(total_compiles);

  std::string out = "{\n";
  out += "  \"schema\": \"" + std::string(kBenchSchema) + "\",\n";
  out += "  \"suite\": \"" + json::escape(outcome.suite.name) + "\",\n";
  out += "  \"description\": \"" + json::escape(outcome.suite.description) +
         "\",\n";
  out += "  \"git_sha\": \"" + json::escape(build_git_sha()) + "\",\n";
  out += "  \"toolchain\": \"" + json::escape(build_toolchain()) + "\",\n";
  out += "  \"baseline\": \"";
  out += codegen::machine_name(report.baseline);
  out += "\",\n";
  out += "  \"wall_seconds\": " + format_fixed(outcome.wall_seconds, 4) +
         ",\n";
  out += "  \"mips\": " + format_fixed(outcome.mips, 2) + ",\n";
  out += "  \"compile_cache\": {\"hits\": " +
         std::to_string(report.compile_cache_hits) +
         ", \"misses\": " + std::to_string(report.compile_cache_misses) +
         ", \"compiles\": " + std::to_string(report.compile_cache_compiles) +
         ", \"hit_rate\": " + format_fixed(hit_rate, 3) + "},\n";
  out += "  \"prepares\": {\"image_resets\": " +
         std::to_string(report.image_resets) + "},\n";
  out += "  \"csv_fnv1a64\": \"" + hex64(outcome.csv_fnv1a64) + "\",\n";
  out += std::string("  \"golden\": \"") +
         (outcome.golden_checked ? "match" : "unchecked") + "\",\n";
  out += "  \"points\": [\n";
  const std::vector<const harness::SweepAxis*> axes = report.columns(true);
  // Multi-tenant points follow the tenants field (the last axis) with the
  // modeled context-switch cost (reported alongside, never folded into,
  // cycles; DESIGN.md section 9).
  const bool with_tenants =
      report.shown(harness::sweep_axis(harness::Axis::kTenant));
  bool first = true;
  for (const harness::SweepCell& cell : report.cells) {
    const flow::ExperimentResult& r = cell.result;
    if (!first) out += ",\n";
    first = false;
    out += "    {" + report.json_axis_members(axes, cell.coord);
    if (with_tenants) {
      out += "\"ctx_switches\": " + std::to_string(r.context_switches) +
             ", \"ctx_switch_cycles\": " +
             std::to_string(r.context_switch_cycles) + ", ";
    }
    out += "\"cycles\": " + std::to_string(r.stats.cycles) +
           ", \"instructions\": " + std::to_string(r.stats.instructions) +
           ", \"reduction_pct\": " +
           format_fixed(report.reduction(cell.coord), 4) +
           ", \"wall_ns\": " + std::to_string(r.wall_ns) +
           ", \"mips\": " + format_fixed(cell_mips(r), 2);
    if (report.modes[cell.coord.mode].fast_path) {
      // Fast-path effectiveness counters: host-side diagnostics, BENCH-only
      // (never part of the deterministic CSV/JSON sweep reports).
      out += ", \"fastpath\": {\"attempts\": " +
             std::to_string(r.fastpath.attempts) +
             ", \"engagements\": " + std::to_string(r.fastpath.engagements) +
             ", \"replayed_instructions\": " +
             std::to_string(r.fastpath.replayed_instructions) +
             ", \"replayed_backedges\": " +
             std::to_string(r.fastpath.replayed_backedges) +
             ", \"bailouts\": {";
      bool first_bail = true;
      for (std::size_t b = 0; b < cpu::kNumBailoutReasons; ++b) {
        if (r.fastpath.bailouts[b] == 0) continue;
        if (!first_bail) out += ", ";
        first_bail = false;
        out += std::string("\"") +
               cpu::bailout_reason_name(static_cast<cpu::BailoutReason>(b)) +
               "\": " + std::to_string(r.fastpath.bailouts[b]);
      }
      out += "}}";
    }
    out += "}";
  }
  out += "\n  ]\n}\n";
  return out;
}

std::string_view build_git_sha() {
#ifdef ZOLCSIM_GIT_SHA
  return ZOLCSIM_GIT_SHA;
#else
  return "unknown";
#endif
}

std::string build_toolchain() {
#if defined(__clang__)
  return "clang " + std::to_string(__clang_major__) + "." +
         std::to_string(__clang_minor__) + "." +
         std::to_string(__clang_patchlevel__);
#elif defined(__GNUC__)
  return "gcc " + std::to_string(__GNUC__) + "." +
         std::to_string(__GNUC_MINOR__) + "." +
         std::to_string(__GNUC_PATCHLEVEL__);
#else
  return "unknown";
#endif
}

}  // namespace zolcsim::scenario
