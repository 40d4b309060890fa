// zolcbench: the benchmark program for zolcsim.
//
//   zolcbench <workload> --seed=N --passes=N --max-seconds=S --trace=0|1
//             --out-dir=DIR
//
// Runs one workload through zolcsim's public API and prints one JSON
// document (a single line) on stdout: end-to-end metrics, per-layer numbers
// (with --trace=1), the pass-0 cycles of every cell for the caller's exact
// expectation check, and the failures seen. run.py wraps it; README.md in
// this directory describes the workloads and metrics.
//
// Workloads:
//   pipeline_paper  cycle-accurate pipeline, 12-kernel paper suite x 5
//                   machines, env scale 4, one thread
//   iss_deepnest    iss and iss-fast on six deep-nest kernels x 3 machines,
//                   geometry 32t-16l-4x-4e, scale 8, plus 4-tenant cells
//   serve_mixed     a `zolcsim serve` daemon (2 workers, 1 sweep thread)
//                   driven closed-loop over 2 connections
//
// A pass is the workload's fixed unit of measured work; --passes of them
// run after set-up (stopping early only past --max-seconds). With
// --trace=1, even passes run untraced and odd passes traced, so the
// tracing overhead is the difference of their median walls.
#include <sys/prctl.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <numeric>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "flow/cache.hpp"
#include "flow/compiled_unit.hpp"
#include "flow/run.hpp"
#include "flow/unit_store.hpp"
#include "flow/workload.hpp"
#include "harness/experiment.hpp"
#include "harness/sweep.hpp"
#include "kernels/kernels.hpp"
#include "scenario/parse.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"
#include "server/client.hpp"
#include "zolc/config.hpp"

namespace {

namespace zs = zolcsim;
using zs::codegen::MachineKind;
using zs::harness::ExecMode;
using zs::harness::SimEngine;

constexpr std::uint64_t kMaxSteps = 400'000'000;
/// Set-ups per run; setup_s is their median.
constexpr std::size_t kSetupReps = 15;
constexpr std::size_t kMaxFailureNotes = 20;
// In-process host-time metrics, set-up aside, report each cell's fastest
// run. Other virtual machines on a shared host slow the whole machine in
// stretches that last seconds to minutes, with quiet moments between; a
// median moves with the share of busy stretches, a minimum far less. This
// is the idea of RunPlan::timing_reps keeping the minimum wall time.
// serve_mixed reports medians and percentiles over the whole measured
// phase instead: its unit of work is a request, and the best of many short
// windows of requests is an extreme value that spread far more between
// runs than the percentiles over all of a run's requests.

// ------------------------------------------------------------- clocks ----

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile, p in (0, 1].
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = std::clamp<std::size_t>(
      static_cast<std::size_t>(std::ceil(p * static_cast<double>(v.size()))), 1, v.size());
  return v[rank - 1];
}

/// Mean of the middle fifth of `v` (its 40th to 60th percentile): a median
/// that does not jump when the two middle values sit far apart.
double median_band(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t lo = v.size() * 2 / 5;
  const std::size_t hi = std::max(lo + 1, (v.size() * 3 + 4) / 5);
  return std::accumulate(v.begin() + static_cast<std::ptrdiff_t>(lo),
                         v.begin() + static_cast<std::ptrdiff_t>(hi), 0.0) /
         static_cast<double>(hi - lo);
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// ------------------------------------------------------------ tracing ----

/// In-memory span recorder. Spans nest by scope on one thread; each keeps
/// its parent's id. A disabled tracer records nothing.
class Tracer {
 public:
  struct Span {
    std::uint32_t id = 0;
    std::uint32_t parent = 0;  ///< 0 = root
    std::string_view layer;    ///< a string literal
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  class Scope {
   public:
    Scope(Tracer& tracer, std::string_view layer)
        : tracer_(tracer.enabled_ ? &tracer : nullptr) {
      if (tracer_ != nullptr) index_ = tracer_->open(layer);
    }
    ~Scope() {
      if (tracer_ != nullptr) tracer_->close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    std::size_t index_ = 0;
  };

  explicit Tracer(bool enabled = false) : enabled_(enabled) {}
  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }
  /// Adds a finished span, a child of the innermost open one, for a call
  /// whose parts were timed by the program itself.
  void record(std::string_view layer, std::int64_t start_ns,
              std::int64_t end_ns) {
    if (!enabled_) return;
    close(open(layer));
    spans_.back().start_ns = start_ns;
    spans_.back().end_ns = end_ns;
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Per-layer self time (span duration minus its children's) in seconds,
  /// plus span counts and each span's own duration list.
  struct LayerTotals {
    double self_s = 0.0;
    std::uint64_t count = 0;
    std::vector<double> durations_ms;
  };
  [[nodiscard]] std::map<std::string, LayerTotals> totals() const {
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent != 0) child_ns[s.parent - 1] += s.end_ns - s.start_ns;
    }
    std::map<std::string, LayerTotals> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      LayerTotals& t = out[std::string(s.layer)];
      const auto dur = s.end_ns - s.start_ns;
      t.self_s += 1e-9 * static_cast<double>(dur - child_ns[i]);
      t.durations_ms.push_back(1e-6 * static_cast<double>(dur));
      ++t.count;
    }
    return out;
  }

 private:
  std::size_t open(std::string_view layer) {
    Span span;
    span.id = static_cast<std::uint32_t>(spans_.size() + 1);
    span.parent = stack_.empty() ? 0 : spans_[stack_.back()].id;
    span.layer = layer;
    span.start_ns = now_ns();
    spans_.push_back(span);
    stack_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }
  void close(std::size_t index) {
    spans_[index].end_ns = now_ns();
    stack_.pop_back();
  }

  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

/// Writes the spans of several tracers (one per thread) as Chrome
/// trace-event JSON, which Perfetto opens directly.
void write_trace(const std::string& path,
                 const std::vector<const Tracer*>& tracers) {
  std::ofstream out(path);
  out << "{\"traceEvents\": [";
  bool first = true;
  std::int64_t origin = -1;
  for (const Tracer* t : tracers) {
    for (const auto& s : t->spans()) {
      if (origin < 0 || s.start_ns < origin) origin = s.start_ns;
    }
  }
  for (std::size_t tid = 0; tid < tracers.size(); ++tid) {
    for (const auto& s : tracers[tid]->spans()) {
      out << (first ? "\n" : ",\n");
      first = false;
      out << "{\"name\": \"" << s.layer << "\", \"ph\": \"X\", \"pid\": 1"
          << ", \"tid\": " << tid
          << ", \"ts\": " << 1e-3 * static_cast<double>(s.start_ns - origin)
          << ", \"dur\": " << 1e-3 * static_cast<double>(s.end_ns - s.start_ns)
          << ", \"args\": {\"id\": " << s.id << ", \"parent\": " << s.parent
          << "}}";
    }
  }
  out << "\n]}\n";
}

// ------------------------------------------------------------ results ----

/// Everything one workload run reports. Metric maps keep their metric
/// names; units live in BENCHMARK.json.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  std::map<std::string, double> e2e;
  std::map<std::string, double> layers;
  std::map<std::string, std::uint64_t> cells;  ///< pass-0 cycles per cell
  std::uint64_t passes_run = 0;

  void fail(std::string what) {
    ++failed;
    if (failures.size() < kMaxFailureNotes) failures.push_back(std::move(what));
  }
};

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

void print_report(const Report& r, std::string_view workload,
                  std::uint64_t seed) {
  std::string out = "{\"workload\": \"" + std::string(workload) + "\"";
  out += ", \"seed\": " + std::to_string(seed);
  out += ", \"passes\": " + std::to_string(r.passes_run);
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"failures\": [";
  for (std::size_t i = 0; i < r.failures.size(); ++i) {
    out += (i == 0 ? "\"" : ", \"") + zs::json::escape(r.failures[i]) + "\"";
  }
  out += "], \"build_type\": \"" ZOLCBENCH_BUILD_TYPE "\"";
  out += ", \"toolchain\": \"" + zs::json::escape(zs::scenario::build_toolchain()) + "\"";
  auto emit = [&out](std::string_view key, const auto& map) {
    out += ", \"" + std::string(key) + "\": {";
    bool first = true;
    for (const auto& [name, value] : map) {
      out += (first ? "\"" : ", \"") + zs::json::escape(name) + "\": ";
      if constexpr (std::is_same_v<std::decay_t<decltype(value)>, double>) {
        out += json_number(value);
      } else {
        out += std::to_string(value);
      }
      first = false;
    }
    out += "}";
  };
  emit("e2e", r.e2e);
  emit("layers", r.layers);
  emit("cells", r.cells);
  out += "}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

/// Peak resident set (VmHWM) of a process, from /proc. Unlike getrusage's
/// ru_maxrss it restarts at exec, so it does not inherit the parent's peak.
double process_peak_rss_mb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

std::uint32_t env_seed_for(std::uint64_t seed) {
  std::seed_seq seq{static_cast<std::uint32_t>(seed),
                    static_cast<std::uint32_t>(seed >> 32), 0x5eedu};
  std::uint32_t out = 0;
  seq.generate(&out, &out + 1);
  return out;
}

// ----------------------------------------------- in-process workloads ----

/// One cell of an in-process grid: a compiled unit run under one mode and
/// tenant count, on its own warm workload.
struct Cell {
  std::string name;
  std::string unit_key;
  ExecMode mode;
  unsigned tenants = 1;
  std::shared_ptr<const zs::flow::CompiledUnit> unit;  ///< null: compile failed
  std::optional<zs::flow::Workload> workload;         ///< single-tenant cells
  std::uint64_t cycles0 = 0;                           ///< pass-0 cycles
  bool ran0 = false;
};

/// The engine layer a single-tenant cell's simulation belongs to.
std::string_view engine_layer(const zs::flow::CompiledUnit& unit,
                              const ExecMode& mode) {
  if (mode.engine != SimEngine::kIss) return "pipeline";
  if (mode.fast_path) return "summary";
  return zs::codegen::machine_zolc_variant(unit.machine()) ? "iss.zolc"
                                                           : "iss.bare";
}

/// Runs one single-tenant cell on its caller-prepared workload through
/// flow::run, the program's own run path. When tracing, the call becomes
/// two spans: the engine's, as long as the simulation wall time flow::run
/// reports, then `verify` for the rest of the call (the kernel output check
/// plus controller set-up and result assembly, a few microseconds).
zs::Result<zs::harness::ExperimentResult> run_cell(
    const zs::flow::CompiledUnit& unit, zs::flow::Workload& workload,
    const ExecMode& mode, Tracer& tracer) {
  zs::flow::RunPlan plan;
  plan.mode = mode;
  plan.max_cycles = kMaxSteps;
  const std::int64_t start = now_ns();
  auto result = zs::flow::run(unit, workload, plan);
  if (tracer.enabled() && result.ok()) {
    const std::int64_t end = now_ns();
    const std::int64_t sim_end = std::min(
        end, start + static_cast<std::int64_t>(result.value().wall_ns));
    tracer.record(engine_layer(unit, mode), start, sim_end);
    tracer.record("verify", sim_end, end);
  }
  return result;
}

struct GridSpec {
  std::vector<std::string> kernels;
  std::vector<MachineKind> machines;
  zs::zolc::ZolcGeometry geometry;
  unsigned scale = 1;
  std::vector<ExecMode> modes;
  /// Extra cells at this tenant count on ZOLC machines, in `tenant_mode`.
  unsigned zolc_tenants = 1;
  ExecMode tenant_mode;
};

std::string mode_label(const ExecMode& mode) {
  return std::string(zs::harness::mode_name(mode));
}

/// Builds the cell list and compiles/prepares every unit: the set-up.
std::vector<Cell> set_up_grid(const GridSpec& grid, std::uint32_t env_seed,
                              Tracer& tracer, Report& report) {
  std::vector<Cell> cells;
  for (const std::string& kernel : grid.kernels) {
    for (MachineKind machine : grid.machines) {
      zs::flow::CompileSpec spec;
      spec.kernel = kernel;
      spec.machine = machine;
      spec.geometry = grid.geometry;
      spec.env.scale = grid.scale;
      spec.env.seed = env_seed;
      const std::string key = spec.key();
      std::shared_ptr<const zs::flow::CompiledUnit> unit;
      {
        Tracer::Scope span(tracer, "compile");
        auto compiled = zs::flow::CompiledUnit::compile(spec);
        if (compiled.ok()) {
          unit = std::make_shared<const zs::flow::CompiledUnit>(
              std::move(compiled).value());
        } else {
          report.fail("compile " + key + ": " + compiled.error().to_string());
        }
      }
      if (unit) {
        Tracer::Scope span(tracer, "prepare.full");
        (void)unit->prepared_image();
      }
      const std::string base = kernel + "/" +
                               std::string(zs::codegen::machine_name(machine));
      const bool zolc = zs::codegen::machine_zolc_variant(machine).has_value();
      for (const ExecMode& mode : grid.modes) {
        std::vector<unsigned> tenant_axis{1};
        if (zolc && grid.zolc_tenants > 1 && mode == grid.tenant_mode) {
          tenant_axis.push_back(grid.zolc_tenants);
        }
        for (unsigned tenants : tenant_axis) {
          Cell cell;
          cell.name = base + "/" + mode_label(mode) + "/t" + std::to_string(tenants);
          cell.unit_key = key;
          cell.mode = mode;
          cell.tenants = tenants;
          cell.unit = unit;
          if (unit && tenants == 1) {
            cell.workload.emplace(zs::flow::Workload::prepare_warm(*unit));
          }
          cells.push_back(std::move(cell));
        }
      }
    }
  }
  return cells;
}

/// Per-pass simulated counters, summed over the pass's cells.
struct PassCounters {
  std::uint64_t instructions = 0;
  std::uint64_t cycles = 0;
  std::uint64_t pipeline_instr = 0;
  std::uint64_t iss_bare_instr = 0;
  std::uint64_t iss_zolc_instr = 0;
  std::uint64_t summary_instr = 0;
  std::uint64_t stall_cycles = 0;
  std::uint64_t flush_slots = 0;
  std::uint64_t zolc_fetch_events = 0;
  std::uint64_t zolc_events = 0;
  std::uint64_t ctx_switches = 0;
  std::uint64_t ctx_switch_cycles = 0;
  std::uint64_t fast_attempts = 0;
  std::uint64_t fast_engagements = 0;
  std::uint64_t fast_replayed = 0;
  std::uint64_t fast_bailouts = 0;
  std::uint64_t resets = 0;
};

int run_grid(const GridSpec& grid, std::uint64_t seed, std::uint64_t passes,
             double max_seconds, bool trace, const std::string& out_dir,
             std::string_view workload) {
  Report report;
  Tracer tracer(trace);
  const std::uint32_t env_seed = env_seed_for(seed);

  // Set-up, repeated from scratch. The first one builds the measured cells;
  // the others, whose cells are dropped, run between passes spread over
  // the measured phase, so that their median describes the whole run
  // rather than one moment of a shared host.
  std::vector<double> setup_s;
  auto set_up = [&](Report& into) {
    tracer.set_enabled(trace);
    const std::int64_t t0 = now_ns();
    std::vector<Cell> built = set_up_grid(grid, env_seed, tracer, into);
    setup_s.push_back(1e-9 * static_cast<double>(now_ns() - t0));
    return built;
  };
  std::vector<Cell> cells = set_up(report);
  auto set_up_again = [&] {
    Report dropped;
    (void)set_up(dropped);
  };
  const double compile_spans_per_setup = 1.0 / kSetupReps;

  // Each cell's least-disturbed run over the untraced passes: its minimum
  // wall and thread CPU time. Other virtual machines on a shared host slow
  // the whole pass in some stretches and leave quiet moments between; a
  // cell needs only one quiet run among the passes.
  constexpr double kNone = std::numeric_limits<double>::infinity();
  std::vector<double> best_ms(cells.size(), kNone);
  std::vector<double> best_cpu_s(cells.size(), kNone);
  std::vector<double> pass_wall[2];  // [traced]
  std::uint64_t cell_runs = 0;
  PassCounters first;
  const std::int64_t measure_start = now_ns();
  std::uint64_t pass = 0;
  for (; pass < passes; ++pass) {
    if (pass > 0 && 1e-9 * static_cast<double>(now_ns() - measure_start) > max_seconds) {
      break;
    }
    const bool traced = trace && pass % 2 == 1;
    tracer.set_enabled(traced);
    PassCounters pc;
    const std::int64_t t0 = now_ns();
    for (std::size_t ci = 0; ci < cells.size(); ++ci) {
      Cell& cell = cells[ci];
      ++report.attempted;
      if (!cell.unit) {
        report.fail("no unit for " + cell.name);
        continue;
      }
      const double cpu0 = thread_cpu_s();
      const std::int64_t c0 = now_ns();
      zs::Result<zs::harness::ExperimentResult> done = [&] {
        if (cell.tenants == 1) {
          {
            Tracer::Scope span(tracer, "prepare.reset");
            cell.workload->reset();
            ++pc.resets;
          }
          return run_cell(*cell.unit, *cell.workload, cell.mode, tracer);
        }
        zs::flow::RunPlan plan;
        plan.mode = cell.mode;
        plan.tenants = cell.tenants;
        plan.max_cycles = kMaxSteps;
        Tracer::Scope span(tracer, "zolc.tenant");
        return zs::flow::run(*cell.unit, plan);
      }();
      if (!done.ok()) {
        report.fail(cell.name + ": " + done.error().to_string());
        continue;
      }
      const zs::harness::ExperimentResult& run = done.value();
      ++cell_runs;
      if (!traced) {
        best_ms[ci] = std::min(best_ms[ci], 1e-6 * static_cast<double>(now_ns() - c0));
        best_cpu_s[ci] = std::min(best_cpu_s[ci], thread_cpu_s() - cpu0);
      }

      const auto& s = run.stats;
      if (pass == 0) {
        cell.cycles0 = s.cycles;
        cell.ran0 = true;
      } else if (cell.ran0 && s.cycles != cell.cycles0) {
        report.fail(cell.name + ": cycles changed between passes");
      }
      pc.instructions += s.instructions;
      pc.cycles += s.cycles;
      const bool zolc = zs::codegen::machine_zolc_variant(cell.unit->machine()).has_value();
      if (cell.mode.engine == SimEngine::kPipeline) {
        pc.pipeline_instr += s.instructions;
        pc.stall_cycles += s.load_use_stalls + s.interlock_stalls +
                           s.raw_stalls + s.gate_stalls;
        pc.flush_slots += s.control_flush_slots;
      } else if (cell.tenants == 1) {
        if (cell.mode.fast_path) {
          pc.summary_instr += s.instructions;
        } else if (zolc) {
          pc.iss_zolc_instr += s.instructions;
        } else {
          pc.iss_bare_instr += s.instructions;
        }
      }
      pc.zolc_fetch_events += s.zolc_fetch_events;
      pc.zolc_events += run.zolc_stats.continue_events + run.zolc_stats.done_events;
      pc.ctx_switches += run.context_switches;
      pc.ctx_switch_cycles += run.context_switch_cycles;
      if (cell.mode.fast_path && cell.tenants == 1) {
        pc.fast_attempts += run.fastpath.attempts;
        pc.fast_engagements += run.fastpath.engagements;
        pc.fast_replayed += run.fastpath.replayed_instructions;
        pc.fast_bailouts += run.fastpath.total_bailouts();
      }
    }
    pass_wall[traced ? 1 : 0].push_back(1e-9 * static_cast<double>(now_ns() - t0));
    if (pass == 0) first = pc;
    while (setup_s.size() < kSetupReps &&
           setup_s.size() * passes <= (pass + 1) * kSetupReps) {
      set_up_again();
    }
  }
  while (setup_s.size() < kSetupReps) set_up_again();
  tracer.set_enabled(false);
  report.passes_run = pass;

  // Cross-cell invariants: iss and iss-fast agree, and N tenants run
  // exactly N times the single-tenant cycles.
  std::map<std::string, std::uint64_t> single;
  for (const Cell& cell : cells) {
    if (!cell.ran0) continue;
    report.cells[cell.name] = cell.cycles0;
    if (cell.tenants == 1 && cell.mode.engine == SimEngine::kIss) {
      auto [it, fresh] = single.emplace(cell.unit_key, cell.cycles0);
      if (!fresh && it->second != cell.cycles0) {
        report.fail(cell.name + ": iss and iss-fast cycles differ");
      }
    }
  }
  for (const Cell& cell : cells) {
    if (!cell.ran0 || cell.tenants == 1) continue;
    auto it = single.find(cell.unit_key);
    if (it != single.end() && cell.cycles0 != it->second * cell.tenants) {
      report.fail(cell.name + ": tenant cycles are not tenants x single");
    }
  }

  // The paper's metric: mean cycle reduction of the ZOLC machines against
  // XRdefault, over single-tenant cells of the first mode.
  std::vector<double> reductions;
  for (const Cell& cell : cells) {
    if (!cell.ran0 || cell.tenants != 1 || !(cell.mode == grid.modes.front())) continue;
    if (!zs::codegen::machine_zolc_variant(cell.unit->machine())) continue;
    const std::string base_name =
        cell.unit->spec().kernel + "/XRdefault/" + mode_label(cell.mode) + "/t1";
    auto base = report.cells.find(base_name);
    if (base == report.cells.end()) continue;
    reductions.push_back(zs::harness::percent_reduction(base->second, cell.cycles0));
  }
  double mean_reduction = 0.0;
  for (double r : reductions) mean_reduction += r / static_cast<double>(reductions.size());

  // A pass's least-disturbed time is the sum of its cells' least-disturbed
  // runs. Cell latencies cluster by cell, so pooled percentiles jump
  // between clusters with small timing noise; percentiles over the cells
  // of each cell's least-disturbed latency do not (p99 is the slowest cell,
  // p50 the middle fifth of the cells).
  std::vector<double> cell_ms;
  double cell_cpu_s = 0.0;
  for (std::size_t ci = 0; ci < cells.size(); ++ci) {
    if (best_ms[ci] == kNone) continue;
    cell_ms.push_back(best_ms[ci]);
    cell_cpu_s += best_cpu_s[ci];
  }
  const double wall_s = 1e-3 * std::accumulate(cell_ms.begin(), cell_ms.end(), 0.0);
  report.e2e["wall_s"] = wall_s;
  report.e2e["sim_mips"] = ratio(static_cast<double>(first.instructions), cell_cpu_s) / 1e6;
  report.e2e["setup_s"] = median(setup_s);
  report.e2e["peak_rss_mb"] = process_peak_rss_mb(getpid());
  report.e2e["sim_cycles"] = static_cast<double>(first.cycles);
  report.e2e["zolc_reduction_pct"] = mean_reduction;
  report.e2e["req_ms_p50"] = median_band(cell_ms);
  report.e2e["req_ms_p99"] = percentile(cell_ms, 0.99);
  report.e2e["req_per_s"] = ratio(static_cast<double>(cells.size()), wall_s);
  report.e2e["samples"] = static_cast<double>(cell_runs);

  report.layers["error_rate"] = ratio(static_cast<double>(report.failed),
                                      static_cast<double>(report.attempted));
  if (trace) {
    const auto totals = tracer.totals();
    const double traced_passes = static_cast<double>(pass_wall[1].size());
    auto self = [&](const char* layer) {
      auto it = totals.find(layer);
      return it == totals.end() ? 0.0 : it->second.self_s;
    };
    auto count = [&](const char* layer) {
      auto it = totals.find(layer);
      return it == totals.end() ? 0.0 : static_cast<double>(it->second.count);
    };
    const double per_pass = traced_passes == 0.0 ? 0.0 : 1.0 / traced_passes;
    auto& L = report.layers;
    L["pipeline.self_s"] = self("pipeline") * per_pass;
    L["pipeline.mips"] = ratio(static_cast<double>(first.pipeline_instr),
                               self("pipeline") * per_pass) / 1e6;
    L["iss.self_s"] = (self("iss.bare") + self("iss.zolc")) * per_pass;
    L["iss.mips_bare"] = ratio(static_cast<double>(first.iss_bare_instr),
                               self("iss.bare") * per_pass) / 1e6;
    L["iss.mips_zolc"] = ratio(static_cast<double>(first.iss_zolc_instr),
                               self("iss.zolc") * per_pass) / 1e6;
    L["summary.mips"] = ratio(static_cast<double>(first.summary_instr),
                              self("summary") * per_pass) / 1e6;
    L["summary.engagement_ratio"] = ratio(static_cast<double>(first.fast_engagements),
                                          static_cast<double>(first.fast_attempts));
    L["summary.replayed_share"] = ratio(static_cast<double>(first.fast_replayed),
                                        static_cast<double>(first.summary_instr));
    L["summary.bailouts"] = static_cast<double>(first.fast_bailouts);
    L["zolc.events"] = static_cast<double>(first.zolc_events);
    L["zolc.ctx_switches"] = static_cast<double>(first.ctx_switches);
    L["zolc.ctx_switch_cycles"] = static_cast<double>(first.ctx_switch_cycles);
    L["zolc.tenant_self_s"] = self("zolc.tenant") * per_pass;
    L["model.stall_cycles"] = static_cast<double>(first.stall_cycles);
    L["model.flush_slots"] = static_cast<double>(first.flush_slots);
    L["model.zolc_fetch_events"] = static_cast<double>(first.zolc_fetch_events);
    L["compile.calls"] = count("compile") * compile_spans_per_setup;
    L["compile.self_s"] = self("compile") * compile_spans_per_setup;
    if (auto it = totals.find("compile"); it != totals.end()) {
      L["compile.ms_p50"] = median(it->second.durations_ms);
    }
    L["prepare.full"] = count("prepare.full") * compile_spans_per_setup;
    L["prepare.full_self_s"] = self("prepare.full") * compile_spans_per_setup;
    L["prepare.resets"] = static_cast<double>(first.resets);
    L["prepare.reset_self_s"] = self("prepare.reset") * per_pass;
    L["verify.self_s"] = self("verify") * per_pass;
    L["trace.spans"] = static_cast<double>(tracer.spans().size());
    L["trace.overhead_s"] = median(pass_wall[1]) - median(pass_wall[0]);
    L["trace.overhead_pct"] =
        100.0 * ratio(median(pass_wall[1]) - median(pass_wall[0]), median(pass_wall[0]));
    write_trace(out_dir + "/trace-" + std::string(workload) + ".json", {&tracer});
  }
  print_report(report, workload, seed);
  return report.failed == 0 ? 0 : 1;
}

// -------------------------------------------------------- serve_mixed ----

constexpr std::string_view kSchema = zs::server::kServeSchema;
constexpr unsigned kServeWorkers = 2;
constexpr unsigned kConnections = 2;

/// First-seen units per pass: `run`s of a new ZOLC geometry, and one-kernel
/// sweeps on XRdefault and ZOLCfull with a new env seed (two compiles
/// each), so these few requests carry a pass's compile work.
///
/// The daemons run without an on-disk unit store. On the reference host,
/// creating a store file took 0.05 ms or 0.6 ms depending on how many files
/// the file system had freed in the last half minute, the previous run's
/// clean-up included, so with a store the p99 latency spread by 0.14 to
/// 0.27 of its median between runs of the same code. The traced run still
/// times UnitStore::save in its `store` layer.
constexpr std::size_t kFreshRunsPerPass = 2;
constexpr std::uint64_t kSweepsPerPass = 3;
/// Occasional `stats`: each copies and sorts every latency sample the
/// daemon has kept, so its cost grows with uptime.
constexpr std::uint64_t kStatsEveryPasses = 8;
const std::vector<std::string_view> kServeMachines = {
    "XRdefault", "XRhrdwil", "uZOLC", "ZOLClite", "ZOLCfull"};
const std::vector<std::string_view> kServeModes = {"iss", "iss-fast"};

enum class ReqKind : std::uint8_t { kRun, kRunFresh, kCompile, kSweep, kStats };

struct ServeRequest {
  ReqKind kind = ReqKind::kRun;
  std::string payload;
  std::string kernel, machine, geometry, mode;  ///< run / compile; sweep: kernel
  /// Requests of one class do the same work: the latency percentiles count
  /// each request at its class's median latency.
  std::string latency_class;
};

std::string_view kind_type(ReqKind kind) {
  switch (kind) {
    case ReqKind::kRun:
    case ReqKind::kRunFresh: return "run";
    case ReqKind::kCompile: return "compile";
    case ReqKind::kSweep: return "sweep";
    case ReqKind::kStats: return "stats";
  }
  return "?";
}

std::string unit_request(std::string_view type, const std::string& kernel,
                         const std::string& machine,
                         const std::string& geometry, const std::string& mode) {
  std::string out = "{\"schema\": \"" + std::string(kSchema) + "\", \"type\": \"" +
                    std::string(type) + "\", \"kernel\": \"" + kernel +
                    "\", \"machine\": \"" + machine + "\", \"geometry\": \"" +
                    geometry + "\"";
  if (!mode.empty()) out += ", \"mode\": \"" + mode + "\"";
  return out + "}";
}

/// The `i`-th first-seen ZOLC geometry of a run: a walk over 7,497 valid
/// geometries (16-32 tasks, 8-16 loops, 2-8 exit and entry records) from a
/// seeded offset, so no unit repeats within a run.
std::string fresh_geometry(std::uint64_t offset, std::uint64_t i) {
  std::uint64_t n = (offset + i * 7919) % (17 * 9 * 7 * 7);
  const unsigned tasks = 16 + static_cast<unsigned>(n % 17);
  n /= 17;
  const unsigned loops = 8 + static_cast<unsigned>(n % 9);
  n /= 9;
  const unsigned exits = 2 + static_cast<unsigned>(n % 7);
  n /= 7;
  const unsigned entries = 2 + static_cast<unsigned>(n % 7);
  return std::to_string(tasks) + "t-" + std::to_string(loops) + "l-" +
         std::to_string(exits) + "x-" + std::to_string(entries) + "e";
}

/// The seeded request list of one pass. The multiset of base-unit runs and
/// compiles is the same for every seed (the seed picks their order, the
/// first-seen geometries and the sweeps' env seeds), so simulated totals
/// compare across seeds.
std::vector<ServeRequest> make_pass(std::uint64_t pass, std::mt19937_64& rng,
                                    std::uint64_t geometry_offset,
                                    std::uint64_t& fresh_counter,
                                    const std::vector<std::string>& kernels) {
  std::vector<ServeRequest> reqs;
  const std::string paper_geometry = "32t-8l-4x-4e";
  for (const std::string& kernel : kernels) {
    for (std::string_view machine : kServeMachines) {
      for (std::string_view mode : kServeModes) {
        ServeRequest r;
        r.kind = ReqKind::kRun;
        r.kernel = kernel;
        r.machine = std::string(machine);
        r.geometry = paper_geometry;
        r.mode = std::string(mode);
        reqs.push_back(std::move(r));
      }
    }
  }
  for (std::size_t i = 0; i < kFreshRunsPerPass; ++i) {
    const std::uint64_t n = fresh_counter++;
    ServeRequest fresh;
    fresh.kind = ReqKind::kRunFresh;
    fresh.kernel = kernels[n % kernels.size()];
    fresh.machine = n % 2 == 0 ? "ZOLClite" : "ZOLCfull";
    fresh.geometry = fresh_geometry(geometry_offset, n);
    fresh.mode = std::string(kServeModes[(n / 2) % 2]);
    reqs.push_back(std::move(fresh));
  }
  for (std::size_t k = 0; k < kernels.size(); ++k) {
    ServeRequest compile;
    compile.kind = ReqKind::kCompile;
    compile.kernel = kernels[k];
    compile.machine = std::string(kServeMachines[(k + pass) % kServeMachines.size()]);
    compile.geometry = paper_geometry;
    reqs.push_back(std::move(compile));
  }
  for (std::uint64_t s = 0; s < kSweepsPerPass; ++s) {
    ServeRequest sweep;
    sweep.kind = ReqKind::kSweep;
    const std::string& kernel = kernels[(kSweepsPerPass * pass + s) % kernels.size()];
    sweep.kernel = kernel;
    const std::uint64_t env_seed = rng() & 0xFFFF'FFFFu;
    sweep.payload =
        "{\"schema\": \"" + std::string(kSchema) +
        "\", \"type\": \"sweep\", \"suite\": {\"suite\": \"serve_mixed\", "
        "\"version\": 1, \"description\": \"benchmark sweep\", \"sweep\": "
        "{\"kernels\": [\"" + kernel + "\"], \"machines\": [\"XRdefault\", "
        "\"ZOLCfull\"], \"modes\": [\"iss\"], \"env\": "
        "{\"scale\": 1, \"seed\": " + std::to_string(env_seed) + "}}}}";
    reqs.push_back(std::move(sweep));
  }
  if (pass % kStatsEveryPasses == 0) {
    ServeRequest stats;
    stats.kind = ReqKind::kStats;
    stats.payload = zs::server::simple_request(zs::server::RequestType::kStats);
    reqs.push_back(std::move(stats));
  }
  for (ServeRequest& r : reqs) {
    if (r.payload.empty()) {
      r.payload = unit_request(kind_type(r.kind), r.kernel, r.machine, r.geometry,
                               r.kind == ReqKind::kCompile ? "" : r.mode);
    }
    r.latency_class = std::string(kind_type(r.kind)) +
                      (r.kind == ReqKind::kRunFresh ? " first-seen " : " ") + r.kernel +
                      "/" + r.machine + "/" + r.mode;
  }
  std::shuffle(reqs.begin(), reqs.end(), rng);
  return reqs;
}

/// The set-up's one request: a sweep over every base unit (paper kernels x
/// machines, paper geometry, default env -- the keys the `run` requests
/// use), which compiles and stores each unit and builds its prepared image.
std::string warm_up_request(const std::vector<std::string>& kernels) {
  std::string names;
  for (const std::string& kernel : kernels) {
    names += (names.empty() ? "\"" : ", \"") + kernel + "\"";
  }
  std::string machines;
  for (std::string_view machine : kServeMachines) {
    machines += (machines.empty() ? "\"" : ", \"") + std::string(machine) + "\"";
  }
  return "{\"schema\": \"" + std::string(kSchema) +
         "\", \"type\": \"sweep\", \"suite\": {\"suite\": \"warm_up\", "
         "\"version\": 1, \"sweep\": {\"kernels\": [" + names +
         "], \"machines\": [" + machines + "], \"modes\": [\"iss\"]}}}";
}

/// `"key": <uint>` lookup in a flat reply without a full parse.
std::optional<std::uint64_t> reply_field(std::string_view reply,
                                         std::string_view key) {
  const std::string needle = "\"" + std::string(key) + "\": ";
  const auto at = reply.find(needle);
  if (at == std::string_view::npos) return std::nullopt;
  std::uint64_t v = 0;
  std::size_t i = at + needle.size();
  if (i >= reply.size() || reply[i] < '0' || reply[i] > '9') return std::nullopt;
  for (; i < reply.size() && reply[i] >= '0' && reply[i] <= '9'; ++i) {
    v = v * 10 + static_cast<std::uint64_t>(reply[i] - '0');
  }
  return v;
}

bool is_error_reply(std::string_view reply) {
  return reply.find("\"reply\": \"error\"") != std::string_view::npos;
}

/// A `zolcsim serve` child process.
class Daemon {
 public:
  explicit Daemon(std::string socket_path) : socket_(std::move(socket_path)) {}
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  bool spawn() {
    const std::string cli = ZOLCBENCH_CLI_PATH;
    std::vector<std::string> args = {cli, "serve", "--socket=" + socket_,
                                     "--workers=" + std::to_string(kServeWorkers),
                                     "--sweep-threads=1"};
    pid_ = fork();
    if (pid_ < 0) return false;
    if (pid_ == 0) {
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      dup2(STDERR_FILENO, STDOUT_FILENO);  // keep stdout for the report
      std::vector<char*> argv;
      for (std::string& a : args) argv.push_back(a.data());
      argv.push_back(nullptr);
      execv(cli.c_str(), argv.data());
      _exit(127);
    }
    return true;
  }

  /// Connects and pings until the first pong (or the deadline passes).
  std::optional<zs::server::Client> await_pong(double deadline_s) {
    const std::int64_t start = now_ns();
    const std::string ping = zs::server::simple_request(zs::server::RequestType::kPing);
    while (1e-9 * static_cast<double>(now_ns() - start) < deadline_s) {
      auto client = zs::server::Client::connect(socket_);
      if (client.ok()) {
        auto reply = client.value().call_raw(ping, 10'000);
        if (reply.ok() && reply.value().find("pong") != std::string::npos) {
          return std::move(client).value();
        }
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return std::nullopt;
  }

  [[nodiscard]] pid_t pid() const { return pid_; }

  /// Asks for a graceful drain, then waits; kills after a grace period.
  void stop() {
    if (pid_ <= 0) return;
    if (auto client = zs::server::Client::connect(socket_); client.ok()) {
      (void)client.value().call_raw(
          zs::server::simple_request(zs::server::RequestType::kShutdown), 5'000);
    }
    for (int i = 0; i < 1000; ++i) {
      int status = 0;
      if (waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    kill(pid_, SIGKILL);
    waitpid(pid_, nullptr, 0);
    pid_ = -1;
  }

 private:
  std::string socket_;
  pid_t pid_ = -1;
};

/// CPU time of another process (all its threads) in seconds, at the
/// clock's full resolution; /proc's utime + stime count 10 ms ticks, too
/// coarse for short runs.
double process_cpu_s(pid_t pid) {
  clockid_t clock{};
  timespec ts{};
  if (clock_getcpuclockid(pid, &clock) != 0 || clock_gettime(clock, &ts) != 0) {
    return 0.0;
  }
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

struct ServeStatsSnapshot {
  double compiles = 0, hits = 0, misses = 0, errors = 0;
  double handle_ms_p50 = 0;
};

std::optional<ServeStatsSnapshot> fetch_stats(zs::server::Client& client) {
  auto reply = client.call(zs::server::simple_request(zs::server::RequestType::kStats));
  if (!reply.ok()) return std::nullopt;
  const zs::json::Value& root = reply.value();
  ServeStatsSnapshot s;
  auto num = [](const zs::json::Value* v) {
    return v != nullptr && v->is_number() ? v->as_number() : 0.0;
  };
  if (const auto* cache = root.find("cache")) {
    s.compiles = num(cache->find("compiles"));
    s.hits = num(cache->find("hits"));
    s.misses = num(cache->find("misses"));
  }
  s.errors = num(root.find("errors"));
  if (const auto* wall = root.find("wall_ms")) s.handle_ms_p50 = num(wall->find("p50"));
  return s;
}

/// One connection's record of what it sent and got back.
struct ConnLog {
  Tracer tracer;
  std::vector<std::pair<const ServeRequest*, double>> rtt_ms;
  std::vector<std::string> failures;
  std::uint64_t failed = 0;
  std::uint64_t attempted = 0;
};

struct RunReply {
  std::string kernel, machine, geometry, mode;
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
};

/// Layer self times inside the daemon are not visible from the client, so
/// the traced run replays one pass in-process through the public calls the
/// daemon makes, each under its own span, after a set-up like the
/// daemon's. A unit the cache had to compile is compiled once more outside
/// the cache (the `compile` span) and saved to a scratch store (the `store`
/// span); cache wait is the cache span minus those two.
void replay_layers(const std::vector<ServeRequest>& requests,
                   const std::vector<std::string>& kernels,
                   const std::string& out_dir, Tracer& replay,
                   std::map<std::string, double>& L) {
  zs::flow::UnitStore store(out_dir + "/replay-store");
  zs::flow::UnitStore shadow(out_dir + "/replay-shadow");
  std::filesystem::remove_all(store.dir());
  std::filesystem::remove_all(shadow.dir());
  zs::flow::CompileCache cache;
  cache.attach_store(&store);
  std::set<std::string> prepared;

  auto resolve = [&](const zs::flow::CompileSpec& spec)
      -> std::shared_ptr<const zs::flow::CompiledUnit> {
    const std::size_t compiles_before = cache.stats().compiles;
    std::shared_ptr<const zs::flow::CompiledUnit> unit;
    {
      Tracer::Scope span(replay, "cache");
      auto got = cache.get_or_compile(spec);
      if (got.ok()) unit = got.value();
    }
    if (unit && cache.stats().compiles != compiles_before) {
      {
        Tracer::Scope span(replay, "compile");
        (void)zs::flow::CompiledUnit::compile(spec);
      }
      Tracer::Scope span(replay, "store");
      (void)shadow.save(*unit);
    }
    return unit;
  };
  auto prepare = [&](const zs::flow::CompiledUnit& unit) {
    const bool first = prepared.insert(unit.spec().key()).second;
    Tracer::Scope span(replay, first ? "prepare.full" : "prepare.reset");
    return zs::flow::Workload::prepare_warm(unit);
  };

  replay.set_enabled(false);
  for (const std::string& kernel : kernels) {
    for (std::string_view machine : kServeMachines) {
      zs::flow::CompileSpec spec;
      spec.kernel = kernel;
      spec.machine = zs::scenario::parse_machine(machine).value();
      if (auto unit = resolve(spec)) (void)prepare(*unit);
    }
  }
  replay.set_enabled(true);
  const auto store_before = store.stats();
  double render_bytes = 0;
  for (const ServeRequest& r : requests) {
    if (r.kind == ReqKind::kStats) continue;
    if (r.kind == ReqKind::kSweep) {
      auto doc = zs::json::parse(r.payload);
      if (!doc.ok() || doc.value().find("suite") == nullptr) continue;
      const std::string text = zs::json::serialize(*doc.value().find("suite"));
      std::optional<zs::scenario::Suite> suite;
      {
        Tracer::Scope span(replay, "scenario.parse");
        auto parsed = zs::scenario::parse_suite(text, "replay");
        if (parsed.ok()) suite = std::move(parsed).value();
      }
      if (!suite) continue;
      for (const std::string& kernel : suite->sweep.kernels) {
        for (MachineKind machine : suite->sweep.machines) {
          zs::flow::CompileSpec spec;
          spec.kernel = kernel;
          spec.machine = machine;
          spec.env = suite->sweep.env;
          (void)resolve(spec);
        }
      }
      zs::scenario::RunOptions options;
      options.threads = 1;
      std::optional<zs::scenario::SuiteOutcome> outcome;
      {
        Tracer::Scope span(replay, "scenario.run");
        auto done = zs::scenario::run_suite(*suite, cache, options);
        if (done.ok()) outcome = std::move(done).value();
      }
      if (!outcome) continue;
      Tracer::Scope span(replay, "render");
      render_bytes += static_cast<double>(outcome->report.to_csv().size());
      continue;
    }
    zs::flow::CompileSpec spec;
    spec.kernel = r.kernel;
    spec.machine = zs::scenario::parse_machine(r.machine).value();
    spec.geometry = zs::scenario::parse_geometry(r.geometry).value();
    auto unit = resolve(spec);
    if (!unit || r.kind == ReqKind::kCompile) continue;
    zs::flow::Workload workload = prepare(*unit);
    (void)run_cell(*unit, workload, zs::scenario::parse_mode(r.mode).value(), replay);
  }

  const auto totals = replay.totals();
  auto self = [&](const char* layer) {
    auto it = totals.find(layer);
    return it == totals.end() ? 0.0 : it->second.self_s;
  };
  auto count = [&](const char* layer) {
    auto it = totals.find(layer);
    return it == totals.end() ? 0.0 : static_cast<double>(it->second.count);
  };
  L["compile.calls"] = count("compile");
  L["compile.self_s"] = self("compile");
  if (auto it = totals.find("compile"); it != totals.end()) {
    L["compile.ms_p50"] = median(it->second.durations_ms);
  }
  L["cache.wait_s"] = std::max(0.0, self("cache") - self("compile") - self("store"));
  const auto store_after = store.stats();
  L["store.loads"] = static_cast<double>(
      (store_after.hits + store_after.misses + store_after.rejects) -
      (store_before.hits + store_before.misses + store_before.rejects));
  L["store.saves"] = static_cast<double>(store_after.saves - store_before.saves);
  L["store.self_s"] = self("store");
  L["prepare.full"] = count("prepare.full");
  L["prepare.full_self_s"] = self("prepare.full");
  L["prepare.resets"] = count("prepare.reset");
  L["prepare.reset_self_s"] = self("prepare.reset");
  L["verify.self_s"] = self("verify");
  L["iss.self_s"] = self("iss.bare") + self("iss.zolc");
  L["render.self_s"] = self("render");
  L["render.bytes"] = render_bytes;
  L["scenario.parse_s"] = self("scenario.parse");
  std::filesystem::remove_all(store.dir());
  std::filesystem::remove_all(shadow.dir());
}

int run_serve(std::uint64_t seed, std::uint64_t passes, double max_seconds,
              bool trace, const std::string& out_dir) {
  Report report;
  std::vector<std::string> kernels;
  for (const auto& k : zs::kernels::kernel_registry()) kernels.emplace_back(k->name());

  // Set-up: daemon start to first pong, then one sweep that compiles and
  // prepares every base unit. Each set-up starts a new daemon; the last
  // one serves the measured phase.
  std::vector<double> setup_s;
  std::unique_ptr<Daemon> daemon;
  std::vector<zs::server::Client> clients;
  const std::string sock = out_dir + "/serve.sock";
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    clients.clear();
    daemon.reset();
    const std::int64_t t0 = now_ns();
    daemon = std::make_unique<Daemon>(sock);
    if (!daemon->spawn()) {
      std::fprintf(stderr, "zolcbench: cannot start the serve daemon\n");
      return 2;
    }
    auto first = daemon->await_pong(30.0);
    if (!first) {
      std::fprintf(stderr, "zolcbench: serve daemon never answered ping\n");
      return 2;
    }
    clients.push_back(std::move(*first));
    auto warm = clients[0].call_raw(warm_up_request(kernels));
    if (!warm.ok() || is_error_reply(warm.value())) {
      report.fail("set-up sweep: " + (warm.ok() ? warm.value() : warm.error().to_string()));
    }
    setup_s.push_back(1e-9 * static_cast<double>(now_ns() - t0));
  }
  for (unsigned c = 1; c < kConnections; ++c) {
    auto client = zs::server::Client::connect(sock);
    if (!client.ok()) {
      std::fprintf(stderr, "zolcbench: second connection refused\n");
      return 2;
    }
    clients.push_back(std::move(client).value());
  }

  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 1);
  const std::uint64_t geometry_offset = rng() % (17 * 9 * 7 * 7);
  std::uint64_t fresh_counter = 0;
  std::vector<std::vector<ServeRequest>> plan;
  for (std::uint64_t p = 0; p < passes; ++p) {
    plan.push_back(make_pass(p, rng, geometry_offset, fresh_counter, kernels));
  }

  const auto before = fetch_stats(clients[0]);
  std::vector<ConnLog> logs(kConnections);
  for (ConnLog& log : logs) log.tracer.set_enabled(false);
  std::vector<std::vector<RunReply>> replies(passes);
  std::vector<double> pass_wall[2];
  std::uint64_t instructions = 0;
  const double cpu0_s = process_cpu_s(daemon->pid());
  const std::int64_t measure_start = now_ns();
  std::uint64_t pass = 0;
  for (; pass < passes; ++pass) {
    if (pass > 0 && 1e-9 * static_cast<double>(now_ns() - measure_start) > max_seconds) {
      break;
    }
    const bool traced = trace && pass % 2 == 1;
    for (ConnLog& log : logs) log.tracer.set_enabled(traced);
    const std::vector<ServeRequest>& reqs = plan[pass];
    std::vector<RunReply> pass_replies(reqs.size());
    std::atomic<std::size_t> next{0};
    auto drive = [&](unsigned conn) {
      ConnLog& log = logs[conn];
      zs::server::Client& client = clients[conn];
      for (std::size_t i = next.fetch_add(1); i < reqs.size(); i = next.fetch_add(1)) {
        const ServeRequest& r = reqs[i];
        ++log.attempted;
        const std::int64_t t0 = now_ns();
        zs::Result<std::string> reply = [&] {
          Tracer::Scope span(log.tracer, r.kind == ReqKind::kSweep     ? "server.sweep"
                                         : r.kind == ReqKind::kCompile ? "server.compile"
                                         : r.kind == ReqKind::kStats   ? "server.stats"
                                                                       : "server.run");
          return client.call_raw(r.payload);
        }();
        log.rtt_ms.emplace_back(&r, 1e-6 * static_cast<double>(now_ns() - t0));
        if (!reply.ok() || is_error_reply(reply.value())) {
          ++log.failed;
          if (log.failures.size() < kMaxFailureNotes) {
            log.failures.push_back(std::string(kind_type(r.kind)) + " " + r.kernel + "/" +
                                   r.machine + "/" + r.geometry + ": " +
                                   (reply.ok() ? reply.value() : reply.error().to_string()));
          }
          continue;
        }
        if (r.kind == ReqKind::kRun || r.kind == ReqKind::kRunFresh) {
          RunReply& out = pass_replies[i];
          out.kernel = r.kernel;
          out.machine = r.machine;
          out.geometry = r.geometry;
          out.mode = r.mode;
          out.cycles = reply_field(reply.value(), "cycles").value_or(0);
          out.instructions = reply_field(reply.value(), "instructions").value_or(0);
        }
      }
    };
    const std::int64_t t0 = now_ns();
    std::thread second(drive, 1u);
    drive(0u);
    second.join();
    const double wall_s = 1e-9 * static_cast<double>(now_ns() - t0);
    pass_wall[traced ? 1 : 0].push_back(wall_s);
    for (const RunReply& r : pass_replies) instructions += r.instructions;
    replies[pass] = std::move(pass_replies);
  }
  report.passes_run = pass;
  const double daemon_cpu_s = process_cpu_s(daemon->pid()) - cpu0_s;
  const double peak_rss = process_peak_rss_mb(daemon->pid());
  const auto after = fetch_stats(clients[0]);
  clients.clear();
  daemon.reset();  // graceful drain and wait

  std::vector<double> all_rtt;
  std::map<ReqKind, std::vector<double>> rtt_by_kind;
  std::map<std::string_view, std::vector<double>> rtt_by_class;
  for (ConnLog& log : logs) {
    report.attempted += log.attempted;
    for (std::string& f : log.failures) report.fail(std::move(f));
    report.failed += log.failed - log.failures.size();
    for (const auto& [req, ms] : log.rtt_ms) {
      all_rtt.push_back(ms);
      rtt_by_kind[req->kind == ReqKind::kRunFresh ? ReqKind::kRun : req->kind].push_back(ms);
      rtt_by_class[req->latency_class].push_back(ms);
    }
  }

  // Every distinct run unit and mode answered by the daemon must match a
  // local flow::run of the same unit, cycle for cycle.
  zs::flow::CompileCache local;
  std::map<std::string, std::uint64_t> checked;
  for (std::uint64_t p = 0; p < pass; ++p) {
    for (const RunReply& r : replies[p]) {
      if (r.kernel.empty()) continue;
      const std::string key = r.kernel + "/" + r.machine + "/" + r.geometry + "/" + r.mode;
      auto [it, fresh] = checked.emplace(key, r.cycles);
      if (!fresh) {
        if (it->second != r.cycles) report.fail(key + ": daemon cycles changed");
        continue;
      }
      zs::flow::CompileSpec spec;
      spec.kernel = r.kernel;
      auto machine = zs::scenario::parse_machine(r.machine);
      auto geometry = zs::scenario::parse_geometry(r.geometry);
      auto mode = zs::scenario::parse_mode(r.mode);
      if (!machine.ok() || !geometry.ok() || !mode.ok()) {
        report.fail(key + ": unparsable unit");
        continue;
      }
      spec.machine = machine.value();
      spec.geometry = geometry.value();
      auto unit = local.get_or_compile(spec);
      if (!unit.ok()) {
        report.fail(key + ": local compile failed");
        continue;
      }
      zs::flow::RunPlan run_plan;
      run_plan.mode = mode.value();
      auto ran = zs::flow::run(*unit.value(), run_plan);
      if (!ran.ok() || ran.value().stats.cycles != r.cycles) {
        report.fail(key + ": daemon cycles differ from a local flow::run");
      }
    }
  }

  // Pass 0 fixes the simulated totals: its run replies' cycles, and the
  // mean reduction of the ZOLC machines against XRdefault in iss mode.
  std::uint64_t sim_cycles = 0;
  std::map<std::string, std::uint64_t> base_iss;
  if (pass > 0) {
    for (std::size_t i = 0; i < plan[0].size(); ++i) {
      const RunReply& r = replies[0][i];
      if (r.kernel.empty()) continue;
      sim_cycles += r.cycles;
      if (plan[0][i].kind == ReqKind::kRun) {
        const std::string name = r.kernel + "/" + r.machine + "/" + r.mode;
        report.cells[name] = r.cycles;
        if (r.mode == "iss") base_iss[r.kernel + "/" + r.machine] = r.cycles;
      }
    }
  }
  std::vector<double> reductions;
  for (const std::string& kernel : kernels) {
    auto base = base_iss.find(kernel + "/XRdefault");
    if (base == base_iss.end()) continue;
    for (std::string_view m : {"uZOLC", "ZOLClite", "ZOLCfull"}) {
      auto it = base_iss.find(kernel + "/" + std::string(m));
      if (it != base_iss.end()) {
        reductions.push_back(zs::harness::percent_reduction(base->second, it->second));
      }
    }
  }
  double mean_reduction = 0.0;
  for (double r : reductions) mean_reduction += r / static_cast<double>(reductions.size());

  const double measured_wall_s =
      std::accumulate(pass_wall[0].begin(), pass_wall[0].end(), 0.0) +
      std::accumulate(pass_wall[1].begin(), pass_wall[1].end(), 0.0);
  report.e2e["wall_s"] = median(pass_wall[0]);
  report.e2e["sim_mips"] = ratio(static_cast<double>(instructions), daemon_cpu_s) / 1e6;
  report.e2e["setup_s"] = median(setup_s);
  report.e2e["peak_rss_mb"] = peak_rss;
  report.e2e["sim_cycles"] = static_cast<double>(sim_cycles);
  report.e2e["zolc_reduction_pct"] = mean_reduction;
  // A request's latency is its class's median: a stall of the host then
  // moves the percentiles only when it slows most requests of a class.
  // The slowest classes are `stats`, the me_fsbm sweep and the me_fsbm
  // `iss` runs, so p99 is the round trip of a large simulation.
  std::vector<double> class_rtt;
  for (const auto& [cls, ms] : rtt_by_class) class_rtt.insert(class_rtt.end(), ms.size(), median(ms));
  report.e2e["req_ms_p50"] = percentile(class_rtt, 0.50);
  report.e2e["req_ms_p99"] = percentile(class_rtt, 0.99);
  report.e2e["req_per_s"] = ratio(static_cast<double>(all_rtt.size()), measured_wall_s);
  report.e2e["samples"] = static_cast<double>(all_rtt.size());

  report.layers["error_rate"] = ratio(static_cast<double>(report.failed),
                                      static_cast<double>(report.attempted));
  if (trace) {
    auto& L = report.layers;
    for (const auto& [kind, name] :
         std::vector<std::pair<ReqKind, std::string>>{{ReqKind::kRun, "run"},
                                                      {ReqKind::kCompile, "compile"},
                                                      {ReqKind::kSweep, "sweep"},
                                                      {ReqKind::kStats, "stats"}}) {
      L["server.rtt_ms_p50." + name] = percentile(rtt_by_kind[kind], 0.50);
      L["server.rtt_ms_p99." + name] = percentile(rtt_by_kind[kind], 0.99);
    }
    if (before && after) {
      const double lookups = (after->hits + after->misses) - (before->hits + before->misses);
      L["cache.lookups"] = lookups / static_cast<double>(pass);
      L["cache.hit_ratio"] = ratio(after->hits - before->hits, lookups);
      L["cache.compiles"] = (after->compiles - before->compiles) / static_cast<double>(pass);
      L["server.handle_ms_p50"] = after->handle_ms_p50;
      L["server.overhead_ms"] = percentile(all_rtt, 0.50) - after->handle_ms_p50;
      L["server.errors"] = after->errors - before->errors;
    }
    double traced_rtt_spans = 0;
    std::vector<const Tracer*> tracers;
    for (const ConnLog& log : logs) {
      tracers.push_back(&log.tracer);
      traced_rtt_spans += static_cast<double>(log.tracer.spans().size());
    }

    Tracer replay(true);
    replay_layers(plan[0], kernels, out_dir, replay, L);
    tracers.push_back(&replay);
    L["trace.spans"] = traced_rtt_spans + static_cast<double>(replay.spans().size());
    L["trace.overhead_s"] = median(pass_wall[1]) - median(pass_wall[0]);
    L["trace.overhead_pct"] =
        100.0 * ratio(median(pass_wall[1]) - median(pass_wall[0]), median(pass_wall[0]));
    write_trace(out_dir + "/trace-serve_mixed.json", tracers);
  }
  print_report(report, "serve_mixed", seed);
  return report.failed == 0 ? 0 : 1;
}

// ---------------------------------------------------------------- main ----

std::optional<std::string> flag(int argc, char** argv, std::string_view name) {
  const std::string prefix = "--" + std::string(name) + "=";
  for (int i = 2; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg.substr(0, prefix.size()) == prefix) return std::string(arg.substr(prefix.size()));
  }
  return std::nullopt;
}

}  // namespace

int main(int argc, char** argv) {
  if (std::string_view(ZOLCBENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr, "zolcbench: built as '%s'; only Release builds are measured\n",
                 ZOLCBENCH_BUILD_TYPE);
    return 2;
  }
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: zolcbench <pipeline_paper|iss_deepnest|serve_mixed> "
                 "--seed=N --passes=N --max-seconds=S --trace=0|1 --out-dir=DIR\n");
    return 2;
  }
  const std::string workload = argv[1];
  std::uint64_t seed = 1, passes = 1;
  double max_seconds = 60.0;
  bool trace = false;
  std::string out_dir = ".";
  try {
    if (auto v = flag(argc, argv, "seed")) seed = std::stoull(*v);
    if (auto v = flag(argc, argv, "passes")) passes = std::max<std::uint64_t>(1, std::stoull(*v));
    if (auto v = flag(argc, argv, "max-seconds")) max_seconds = std::stod(*v);
    if (auto v = flag(argc, argv, "trace")) trace = *v == "1";
    if (auto v = flag(argc, argv, "out-dir")) out_dir = *v;
  } catch (const std::exception&) {
    std::fprintf(stderr, "zolcbench: bad flag value\n");
    return 2;
  }
  std::filesystem::create_directories(out_dir);

  if (workload == "pipeline_paper") {
    GridSpec grid;
    for (const auto& k : zs::kernels::kernel_registry()) grid.kernels.emplace_back(k->name());
    grid.machines = {MachineKind::kXrDefault, MachineKind::kXrHrdwil, MachineKind::kUZolc,
                     MachineKind::kZolcLite, MachineKind::kZolcFull};
    grid.scale = 4;
    grid.modes = {ExecMode{}};
    return run_grid(grid, seed, passes, max_seconds, trace, out_dir, workload);
  }
  if (workload == "iss_deepnest") {
    GridSpec grid;
    grid.kernels = {"tiled_mm", "matmul", "conv2d", "me_fsbm", "deepnest10", "wavelet4"};
    grid.machines = {MachineKind::kXrDefault, MachineKind::kZolcLite, MachineKind::kZolcFull};
    grid.geometry = zs::scenario::parse_geometry("32t-16l-4x-4e").value();
    grid.scale = 8;
    grid.modes = {ExecMode{SimEngine::kIss, false}, ExecMode{SimEngine::kIss, true}};
    grid.zolc_tenants = 4;
    grid.tenant_mode = grid.modes.back();
    return run_grid(grid, seed, passes, max_seconds, trace, out_dir, workload);
  }
  if (workload == "serve_mixed") {
    return run_serve(seed, passes, max_seconds, trace, out_dir);
  }
  std::fprintf(stderr, "zolcbench: unknown workload '%s'\n", workload.c_str());
  return 2;
}
