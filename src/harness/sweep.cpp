#include "harness/sweep.hpp"

#include <atomic>
#include <thread>

#include "common/contracts.hpp"
#include "common/csv.hpp"
#include "common/json.hpp"
#include "common/strings.hpp"
#include "flow/cache.hpp"
#include "flow/run.hpp"
#include "harness/experiment.hpp"

namespace zolcsim::harness {

namespace {

/// Default-constructible per-cell outcome so workers can write results into
/// preallocated slots without synchronization. kNotRun marks cells skipped
/// by the early-abort after another cell failed; kCopyGeometryZero marks
/// cells of geometry-independent (non-ZOLC) machines at geometry index > 0,
/// which are filled from the geometry-0 cell after the pool joins instead
/// of re-simulating an identical experiment.
struct CellOutcome {
  enum class State : std::uint8_t { kNotRun, kOk, kError, kCopyGeometryZero };
  State state = State::kNotRun;
  flow::ExperimentResult result;
  Error error;
};

}  // namespace

const std::array<SweepAxis, kNumAxes>& sweep_axes() {
  static const std::array<SweepAxis, kNumAxes> axes = {{
      {Axis::kKernel, "kernels", "kernel", &CellCoord::kernel,
       [](const SweepReport& r) { return r.kernels.size(); },
       [](const SweepReport& r, std::size_t i) { return r.kernels[i]; }, "",
       true, false},
      {Axis::kMachine, "machines", "machine", &CellCoord::machine,
       [](const SweepReport& r) { return r.machines.size(); },
       [](const SweepReport& r, std::size_t i) {
         return std::string(codegen::machine_name(r.machines[i]));
       },
       "", true, false},
      {Axis::kConfig, "configs", "config", &CellCoord::config,
       [](const SweepReport& r) { return r.configs.size(); },
       [](const SweepReport& r, std::size_t i) {
         return config_name(r.configs[i]);
       },
       "", true, false},
      {Axis::kGeometry, "geometries", "geometry", &CellCoord::geometry,
       [](const SweepReport& r) { return r.geometries.size(); },
       [](const SweepReport& r, std::size_t i) {
         return r.geometries[i].label();
       },
       zolc::ZolcGeometry{}.label(), true, false},
      {Axis::kMode, "modes", "mode", &CellCoord::mode,
       [](const SweepReport& r) { return r.modes.size(); },
       [](const SweepReport& r, std::size_t i) {
         return std::string(flow::mode_name(r.modes[i]));
       },
       std::string(flow::mode_name(flow::ExecMode{})), true, false},
      // Multi-tenant material is BENCH-gated too: single-tenant suites keep
      // their historical points.
      {Axis::kTenant, "tenants", "tenants", &CellCoord::tenant,
       [](const SweepReport& r) { return r.tenants.size(); },
       [](const SweepReport& r, std::size_t i) {
         return std::to_string(r.tenants[i]);
       },
       "1", false, true},
  }};
  return axes;
}

std::string config_name(const cpu::PipelineConfig& config) {
  std::string name =
      config.branch_resolve == cpu::BranchResolveStage::kExecute
          ? "EX-resolve"
          : "ID-resolve";
  name += config.speculation == cpu::SpeculationPolicy::kRollback
              ? "/rollback"
              : "/gate";
  if (!config.forwarding) name += "/nofwd";
  return name;
}

std::size_t SweepReport::index_of(const CellCoord& coord) const {
  std::size_t index = 0;
  for (const SweepAxis& axis : sweep_axes()) {
    const std::size_t n = axis.size(*this);
    ZS_EXPECTS(coord.*axis.coord < n);
    index = index * n + coord.*axis.coord;
  }
  return index;
}

CellCoord SweepReport::coord_of(std::size_t index) const {
  CellCoord coord;
  const auto& axes = sweep_axes();
  for (auto axis = axes.rbegin(); axis != axes.rend(); ++axis) {
    const std::size_t n = axis->size(*this);
    coord.*axis->coord = index % n;
    index /= n;
  }
  return coord;
}

const flow::ExperimentResult& SweepReport::at(const CellCoord& coord) const {
  return cells[index_of(coord)].result;
}

const flow::ExperimentResult* SweepReport::find(
    const AxisLabels& labels) const {
  CellCoord coord;
  for (const SweepAxis& axis : sweep_axes()) {
    const std::string& want = labels[static_cast<std::size_t>(axis.id)];
    const std::size_t n = axis.size(*this);
    if (want.empty()) {
      if (n == 0) return nullptr;
      continue;
    }
    std::size_t i = 0;
    while (i < n && axis.label(*this, i) != want) ++i;
    if (i == n) return nullptr;
    coord.*axis.coord = i;
  }
  return &at(coord);
}

double SweepReport::reduction(const CellCoord& coord) const {
  for (std::size_t m = 0; m < machines.size(); ++m) {
    if (machines[m] == baseline) {
      CellCoord base = coord;
      base.machine = m;
      return percent_reduction(at(base).stats.cycles, at(coord).stats.cycles);
    }
  }
  return 0.0;
}

bool SweepReport::shown(const SweepAxis& axis) const {
  return axis.default_label.empty() || axis.size(*this) != 1 ||
         axis.label(*this, 0) != axis.default_label;
}

std::vector<const SweepAxis*> SweepReport::columns(bool bench) const {
  std::vector<const SweepAxis*> out;
  for (const SweepAxis& axis : sweep_axes()) {
    if ((bench && axis.bench_always) || shown(axis)) out.push_back(&axis);
  }
  return out;
}

std::string SweepReport::json_axis_members(
    const std::vector<const SweepAxis*>& columns,
    const CellCoord& coord) const {
  std::string out;
  for (const SweepAxis* axis : columns) {
    const std::string label = axis->label(*this, coord.*axis->coord);
    out += '"';
    out += axis->column;
    out += "\": ";
    out += axis->numeric ? label : '"' + json::escape(label) + '"';
    out += ", ";
  }
  return out;
}

std::string SweepReport::to_csv() const {
  const std::vector<const SweepAxis*> axes = columns(false);
  const bool with_tenants = shown(sweep_axis(Axis::kTenant));
  std::vector<std::string> header;
  for (const SweepAxis* axis : axes) header.emplace_back(axis->column);
  for (const char* column :
       {"cycles", "instructions", "reduction_pct", "init_instructions",
        "hw_loops", "sw_loops", "code_words", "continue_events",
        "done_events", "table_writes", "gate_stalls", "load_use_stalls",
        "control_flush_slots"}) {
    header.emplace_back(column);
  }
  if (with_tenants) {
    header.emplace_back("ctx_switches");
    header.emplace_back("ctx_switch_cycles");
  }
  CsvWriter csv(header);
  for (const SweepCell& cell : cells) {
    const flow::ExperimentResult& r = cell.result;
    std::vector<std::string> row;
    for (const SweepAxis* axis : axes) {
      row.push_back(axis->label(*this, cell.coord.*axis->coord));
    }
    for (const std::string& value :
         {std::to_string(r.stats.cycles),
          std::to_string(r.stats.instructions),
          format_fixed(reduction(cell.coord), 4),
          std::to_string(r.init_instructions), std::to_string(r.hw_loops),
          std::to_string(r.sw_loops), std::to_string(r.code_words),
          std::to_string(r.zolc_stats.continue_events),
          std::to_string(r.zolc_stats.done_events),
          std::to_string(r.zolc_stats.table_writes),
          std::to_string(r.stats.gate_stalls),
          std::to_string(r.stats.load_use_stalls),
          std::to_string(r.stats.control_flush_slots)}) {
      row.push_back(value);
    }
    if (with_tenants) {
      row.push_back(std::to_string(r.context_switches));
      row.push_back(std::to_string(r.context_switch_cycles));
    }
    csv.add_row(std::move(row));
  }
  return csv.render();
}

std::string SweepReport::to_json() const {
  const std::vector<const SweepAxis*> axes = columns(false);
  const bool with_tenants = shown(sweep_axis(Axis::kTenant));
  std::string out = "{\n  \"baseline\": \"";
  out += codegen::machine_name(baseline);
  out += "\",\n  \"cells\": [\n";
  bool first = true;
  for (const SweepCell& cell : cells) {
    const flow::ExperimentResult& r = cell.result;
    if (!first) out += ",\n";
    first = false;
    out += "    {" + json_axis_members(axes, cell.coord);
    out += "\"cycles\": " + std::to_string(r.stats.cycles) +
           ", \"instructions\": " + std::to_string(r.stats.instructions) +
           ", \"reduction_pct\": " + format_fixed(reduction(cell.coord), 4) +
           ", \"init_instructions\": " + std::to_string(r.init_instructions) +
           ", \"hw_loops\": " + std::to_string(r.hw_loops) +
           ", \"sw_loops\": " + std::to_string(r.sw_loops) +
           ", \"continue_events\": " +
           std::to_string(r.zolc_stats.continue_events) +
           ", \"done_events\": " + std::to_string(r.zolc_stats.done_events);
    if (with_tenants) {
      out += ", \"ctx_switches\": " + std::to_string(r.context_switches) +
             ", \"ctx_switch_cycles\": " +
             std::to_string(r.context_switch_cycles);
    }
    out += "}";
  }
  out += "\n  ]\n}\n";
  return out;
}

Result<SweepReport> run_sweep(const SweepSpec& spec) {
  flow::CompileCache cache;
  return run_sweep(spec, cache);
}

Result<SweepReport> run_sweep(const SweepSpec& spec,
                              flow::CompileCache& cache) {
  SweepReport report;
  report.baseline = spec.baseline;

  if (spec.kernels.empty()) {
    for (const auto& kernel : kernels::kernel_registry()) {
      report.kernels.emplace_back(kernel->name());
    }
  } else {
    report.kernels = spec.kernels;
  }
  for (const std::string& name : report.kernels) {
    if (kernels::find_kernel(name) == nullptr) {
      return Error{ErrorCode::kUnknownKernel,
                   "sweep: unknown kernel '" + name + "'"};
    }
  }

  if (spec.machines.empty()) {
    report.machines.assign(std::begin(codegen::kAllMachines),
                           std::end(codegen::kAllMachines));
  } else {
    report.machines = spec.machines;
  }
  report.configs = spec.configs.empty()
                       ? std::vector<cpu::PipelineConfig>{cpu::PipelineConfig{}}
                       : spec.configs;
  report.geometries =
      spec.geometries.empty()
          ? std::vector<zolc::ZolcGeometry>{zolc::ZolcGeometry{}}
          : spec.geometries;
  report.modes =
      spec.modes.empty() ? std::vector<flow::ExecMode>{flow::ExecMode{}}
                         : spec.modes;
  report.tenants = spec.tenants.empty() ? std::vector<unsigned>{1}
                                        : spec.tenants;
  for (const zolc::ZolcGeometry& geometry : report.geometries) {
    if (!geometry.valid()) {
      return Error{ErrorCode::kBadConfig,
                   "sweep: invalid ZOLC geometry " + geometry.label()};
    }
  }
  // Tenant scheduling is an ISS-engine feature; reject the combination
  // with any pipeline mode up front rather than per cell.
  const bool all_iss = [&] {
    for (const flow::ExecMode& mode : report.modes) {
      if (mode.engine != flow::SimEngine::kIss) return false;
    }
    return true;
  }();
  for (const unsigned count : report.tenants) {
    if (count == 0) {
      return Error{ErrorCode::kBadConfig, "sweep: tenant count must be >= 1"};
    }
    if (count > 1 && !all_iss) {
      return Error{ErrorCode::kBadConfig,
                   "sweep: tenant counts > 1 require ISS execution modes"};
    }
  }

  std::size_t n_cells = 1;
  for (const SweepAxis& axis : sweep_axes()) n_cells *= axis.size(report);
  std::vector<CellOutcome> outcomes(n_cells);

  // Each worker claims cell indices from a shared counter and writes only
  // its own slot; cell order (and thus the report) is thread-count
  // independent. Any failure stops further claims -- the sweep is already
  // lost, so remaining cells (up to max_cycles each) are not worth running.
  //
  // The pipeline-config axis repeats the same (kernel, machine, geometry)
  // compile, so all workers draw units from the shared CompileCache: each
  // unit is compiled at most once while it stays resident and every further
  // cell is a cache hit (per-sweep deltas surface in the report).
  const flow::CompileCache::Stats stats_before = cache.stats();
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  const auto worker = [&] {
    for (std::size_t i = next.fetch_add(1);
         i < n_cells && !failed.load(std::memory_order_relaxed);
         i = next.fetch_add(1)) {
      const CellCoord coord = report.coord_of(i);
      const codegen::MachineKind machine = report.machines[coord.machine];
      CellOutcome& out = outcomes[i];
      // Machines that ignore the geometry (non-ZOLC, and uZOLC whose single
      // loop is fixed) would repeat the g == 0 simulation exactly at every
      // other geometry point, so fill those cells by copy afterwards.
      const auto cell_variant = codegen::machine_zolc_variant(machine);
      if (coord.geometry > 0 &&
          (!cell_variant.has_value() ||
           *cell_variant == zolc::ZolcVariant::kMicro)) {
        out.state = CellOutcome::State::kCopyGeometryZero;
        continue;
      }
      try {
        flow::CompileSpec unit_spec;
        unit_spec.kernel = report.kernels[coord.kernel];
        unit_spec.machine = machine;
        unit_spec.geometry = report.geometries[coord.geometry];
        unit_spec.env = spec.env;
        auto unit = cache.get_or_compile(unit_spec);
        flow::RunPlan plan;
        plan.config = report.configs[coord.config];
        plan.max_cycles = spec.max_cycles;
        plan.mode = report.modes[coord.mode];
        plan.timing_reps = spec.timing_reps;
        plan.tenants = report.tenants[coord.tenant];
        auto result =
            unit.ok() ? flow::run(*unit.value(), plan)
                      : Result<flow::ExperimentResult>(std::move(unit).error());
        if (result.ok()) {
          out.state = CellOutcome::State::kOk;
          out.result = std::move(result).value();
        } else {
          out.state = CellOutcome::State::kError;
          out.error = result.error();
          failed.store(true, std::memory_order_relaxed);
        }
      } catch (const std::exception& e) {
        out.state = CellOutcome::State::kError;
        out.error = Error{ErrorCode::kSimulation,
                          "sweep cell " + report.kernels[coord.kernel] + "/" +
                              std::string(codegen::machine_name(machine)) +
                              ": " + e.what()};
        failed.store(true, std::memory_order_relaxed);
      }
    }
  };

  unsigned threads = spec.threads != 0 ? spec.threads
                                       : std::thread::hardware_concurrency();
  if (threads == 0) threads = 1;
  threads = static_cast<unsigned>(
      std::min<std::size_t>(threads, n_cells == 0 ? 1 : n_cells));

  if (threads <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }

  if (failed.load()) {
    for (const CellOutcome& out : outcomes) {
      if (out.state == CellOutcome::State::kError) return out.error;
    }
  }
  const flow::CompileCache::Stats cache_stats = cache.stats();
  report.compile_cache_hits = cache_stats.hits - stats_before.hits;
  report.compile_cache_misses = cache_stats.misses - stats_before.misses;
  report.compile_cache_compiles =
      cache_stats.compiles - stats_before.compiles;
  report.cells.reserve(n_cells);
  for (std::size_t i = 0; i < n_cells; ++i) {
    SweepCell cell;
    cell.coord = report.coord_of(i);
    if (outcomes[i].state == CellOutcome::State::kCopyGeometryZero) {
      // The geometry-0 source precedes this cell, so it is already stored.
      CellCoord source = cell.coord;
      source.geometry = 0;
      cell.result = report.cells[report.index_of(source)].result;
      cell.result.geometry = report.geometries[cell.coord.geometry];
    } else {
      ZS_ASSERT(outcomes[i].state == CellOutcome::State::kOk);
      cell.result = std::move(outcomes[i].result);
    }
    report.image_resets += cell.result.image_resets;
    report.cells.push_back(std::move(cell));
  }
  return report;
}

}  // namespace zolcsim::harness
