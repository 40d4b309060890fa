// zolcsim -- CLI driver over the staged toolchain (src/flow).
//
//   zolcsim list                       catalog kernels / machines / defaults
//   zolcsim compile <kernel> [...]     compile stage: unit summary, disasm,
//                                      zolcscan report
//   zolcsim run <kernel> [...]         compile + run one experiment
//   zolcsim sweep [...]                grid sweep, CSV/JSON to stdout/file
//   zolcsim bench [...]                run scenario suites, emit BENCH_*.json
//   zolcsim serve [...]                long-running daemon on a Unix socket
//   zolcsim client <action> [...]      talk to a serve daemon
//
// Run `zolcsim help` (or any subcommand with bad flags) for the full flag
// list. Exit codes: 0 success, 1 toolchain error, 2 usage error.
#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "cli.hpp"
#include "common/json.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "flow/cache.hpp"
#include "flow/compiled_unit.hpp"
#include "flow/run.hpp"
#include "harness/sweep.hpp"
#include "kernels/kernels.hpp"
#include "scenario/parse.hpp"
#include "scenario/runner.hpp"
#include "server/client.hpp"
#include "server/server.hpp"

namespace {

using namespace zolcsim;

constexpr const char* kUsage = R"(zolcsim -- staged ZOLC toolchain driver

usage: zolcsim <command> [flags]

commands:
  list                      kernels (paper + extended), machines, defaults
  compile <kernel>          compile stage only; prints the unit summary
      --machine=NAME        machine configuration   (default ZOLCfull)
      --geometry=LABEL      ZOLC geometry, e.g. 32t-8l-4x-4e[-p14]
      --disasm              print the lowered program disassembly
      --scan                print the zolcscan post-link analysis
      --format=text|json    json: program words + table image + scan
  run <kernel>              compile + execute + verify one experiment
      --machine=NAME --geometry=LABEL
      --config=NAME         pipeline config, e.g. EX-resolve/rollback[/nofwd]
      --mode=NAME           pipeline (cycle-accurate, default), iss, or
                            iss-fast (ISS with the loop-summary fast path)
      --max-cycles=N        cycle budget          (default 200000000)
      --preempt-every=N     ISS only: save/clobber/restore the full ZOLC
                            context every N instructions (differential knob)
      --tenants=N           time-slice N copies of the workload over one
                            controller (ISS only; reports switch cost)
  sweep                     grid over kernel/machine/config/geometry/mode/tenants
      --kernels=a,b,...     default: the 12-kernel paper suite
      --machines=a,b,...    default: all five machines
      --configs=a,b,...     default: EX-resolve/rollback
      --geometries=a,b,...  default: the paper prototype geometry
      --modes=a,b,...       pipeline|iss|iss-fast (default pipeline)
      --tenants=a,b,...     tenant-count axis     (default 1; ISS modes only)
      --preempt-every=N
      --baseline=NAME       reduction baseline    (default XRdefault)
      --max-cycles=N --threads=N
      --format=csv|json     default csv
      --out=FILE            default stdout
      --from-file=SUITE     run a scenario suite file instead of grid flags
                            (verifies the suite's golden digest + thresholds)
  bench                     run scenario suites, write BENCH_<suite>.json
      --suite-dir=DIR       directory of *.json suite files
      --out-dir=DIR         artifact directory    (default .)
      --threads=N
  bench --compare OLD NEW   diff two BENCH artifact directories per point
      --tolerance=PCT       allowed MIPS regression (default 10)
  serve                     daemon: zolcsim-serve-v1 over a Unix socket,
                            one warm compile cache shared by every request
      --socket=PATH         socket path (required)
      --workers=N           connection workers     (default 4)
      --sweep-threads=N     sweep threads per request (default hardware)
      --idle-timeout-ms=N   close silent connections (default 30000)
                            SIGTERM/SIGINT and a client "shutdown" request
                            both drain gracefully: in-flight requests
                            finish and their replies flush before exit
  client <action>           one request against a serve daemon
      --socket=PATH         socket path (required by every action); an
                            action rejects any flag not listed for it
      ping | stats | shutdown
                            no other flags
      compile <kernel>      --machine --geometry, as for compile
      run <kernel>          --machine --geometry --config --mode
                            --max-cycles --preempt-every --tenants, as
                            for run
      sweep                 --from-file=SUITE --format=csv|json --out=FILE
                            --expect-zero-compiles
                            (output is byte-identical to local
                            `zolcsim sweep --from-file`)
      bench-suite           --from-file=SUITE --out-dir=DIR
exit codes: 0 ok, 1 toolchain error / comparison failure, 2 usage error
)";

/// One compile cache for the whole process: consecutive suites (and a
/// sweep following them) share warm units, which is the point of the
/// caller-supplied-cache run_sweep overload.
flow::CompileCache& process_cache() {
  static flow::CompileCache cache;
  return cache;
}

int usage_error(const std::string& message) {
  std::fprintf(stderr, "%s\n\n%s", message.c_str(), kUsage);
  return 2;
}

int toolchain_error(const Error& error) {
  std::fprintf(stderr, "%s\n", cli::render_error(error).c_str());
  return 1;
}

/// A malformed flag value is a usage error (exit 2), same class as an
/// unknown flag -- toolchain_error (exit 1) is reserved for failures of the
/// flow itself (compile / run / sweep / io).
int bad_flag_value(const Error& error) {
  std::fprintf(stderr, "%s\n", cli::render_error(error).c_str());
  return 2;
}

/// Fetches "--name=value", rejecting an explicitly empty value. Returns
/// nullopt when the flag is absent; sets `rc` non-zero on empty values.
std::optional<std::string> nonempty_value(const cli::Args& args,
                                          std::string_view name, int& rc) {
  const auto value = args.value_of(name);
  if (value && value->empty()) {
    rc = usage_error("empty value for --" + std::string(name));
    return std::nullopt;
  }
  return value;
}

/// Fetches "--name=N" as a strictly positive integer (no truncation:
/// anything non-numeric, <= 0, or beyond `max` is a usage error). Returns
/// nullopt when the flag is absent; sets `rc` non-zero on bad values.
std::optional<std::uint64_t> positive_int_flag(
    const cli::Args& args, std::string_view name, int& rc,
    std::uint64_t max = std::numeric_limits<std::int64_t>::max()) {
  const auto value = nonempty_value(args, name, rc);
  if (!value) return std::nullopt;
  const auto n = parse_int(*value);
  if (!n || *n <= 0 || static_cast<std::uint64_t>(*n) > max) {
    rc = usage_error("bad --" + std::string(name) + " value '" + *value +
                     "'");
    return std::nullopt;
  }
  return static_cast<std::uint64_t>(*n);
}

int reject_unknown_flags(const cli::Args& args,
                         const std::vector<std::string_view>& values,
                         const std::vector<std::string_view>& switches) {
  const std::vector<std::string> unknown = args.unknown(values, switches);
  if (unknown.empty()) return 0;
  return usage_error("unknown flag '" + unknown.front() + "'");
}

/// --format=csv|json (default csv); true for json. Sets `rc` non-zero on
/// any other value.
bool json_format_flag(const cli::Args& args, int& rc) {
  const auto format = nonempty_value(args, "format", rc);
  if (format && *format != "csv" && *format != "json") {
    rc = usage_error("bad --format value '" + *format + "' (csv or json)");
  }
  return format == "json";
}

/// The --out-dir artifact directory (default "."), created if missing. Sets
/// `rc` non-zero on an empty value or a directory that cannot be created.
std::string out_dir_flag(const cli::Args& args, int& rc) {
  const std::string dir = nonempty_value(args, "out-dir", rc).value_or(".");
  std::error_code ec;
  if (rc == 0) std::filesystem::create_directories(dir, ec);
  if (ec) {
    rc = toolchain_error(Error{ErrorCode::kIo,
                               "cannot create artifact directory '" + dir +
                                   "': " + ec.message()});
  }
  return dir;
}

Result<std::string> read_text_file(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    return Error{ErrorCode::kIo, "cannot read '" + path + "'"};
  }
  std::ostringstream text;
  text << file.rdbuf();
  return text.str();
}

/// Writes `text` to `path`. The explicit flush surfaces deferred write
/// errors (e.g. disk full) as a kIo toolchain error (exit 1).
int write_text_file(const std::string& path, const std::string& text) {
  std::ofstream file(path, std::ios::binary);
  file << text;
  file.flush();
  if (file.good()) return 0;
  return toolchain_error(Error{ErrorCode::kIo, "cannot write '" + path + "'"});
}

// ---------------------------------------------------------------- list ----

void list_registry(const char* title,
                   const std::vector<std::unique_ptr<kernels::Kernel>>& reg) {
  std::printf("%s:\n", title);
  TextTable table({"kernel", "description"});
  for (const auto& kernel : reg) {
    table.add_row({std::string(kernel->name()),
                   std::string(kernel->description())});
  }
  std::printf("%s\n", table.render().c_str());
}

int cmd_list() {
  list_registry("paper suite", kernels::kernel_registry());
  list_registry("extended (geometry exploration)",
                kernels::extended_kernel_registry());
  std::printf("machines:");
  for (const codegen::MachineKind machine : codegen::kAllMachines) {
    std::printf(" %s", std::string(codegen::machine_name(machine)).c_str());
  }
  std::printf("\ndefault geometry: %s\n",
              zolc::ZolcGeometry{}.label().c_str());
  return 0;
}

// ----------------------------------------------------- compile helpers ----

/// The flag reader of `compile`, `run` and `client compile|run`: rejects
/// every flag that is neither one of the verb's run options nor in
/// `values`/`switches`, takes the kernel name from positional `kernel_at`
/// and reads the run options into `spec` and `plan`. Returns 0 or an exit
/// code.
int read_unit_flags(const cli::Args& args, bool run, std::size_t kernel_at,
                    std::vector<std::string_view> values,
                    const std::vector<std::string_view>& switches,
                    flow::CompileSpec& spec, flow::RunPlan& plan) {
  for (const scenario::RunOption& option : scenario::run_options()) {
    if (run || !option.run_only) values.push_back(option.flag);
  }
  if (const int rc = reject_unknown_flags(args, values, switches)) return rc;
  if (args.positional.size() != kernel_at + 1) {
    return usage_error("expected exactly one kernel name");
  }
  spec.kernel = args.positional[kernel_at];
  auto read = cli::read_run_options(args, run, spec, plan);
  return read.ok() ? 0 : bad_flag_value(read.error());
}

void print_unit_summary(const flow::CompiledUnit& unit) {
  const codegen::Program& program = unit.program();
  std::printf("unit: %s (%s) geometry %s\n", unit.spec().kernel.c_str(),
              std::string(codegen::machine_name(unit.machine())).c_str(),
              unit.geometry().label().c_str());
  std::printf(
      "  code words        %zu\n  init instructions %u\n"
      "  hw loops          %u\n  sw loops          %u\n",
      program.size_words(), program.init_instructions, program.hw_loop_count,
      program.sw_loop_count);
  for (const std::string& note : program.notes) {
    std::printf("  note: %s\n", note.c_str());
  }
}

void print_scan_report(const flow::CompiledUnit& unit) {
  const cfg::ScanReport& scan = unit.scan();
  std::printf("zolcscan: %zu accelerable counted loop(s)\n",
              scan.candidates.size());
  for (const cfg::MicroPlan& plan : scan.candidates) {
    std::printf("  depth %u: pc [%s, %s] index r%u, %d..%d step %d\n",
                plan.depth, hex32(plan.start_pc).c_str(),
                hex32(plan.end_pc).c_str(), plan.index_reg, plan.initial,
                plan.final, plan.step);
  }
  for (const Error& reason : scan.rejected) {
    std::printf("  rejected[%s]: %s\n",
                std::string(error_code_name(reason.code)).c_str(),
                reason.to_string().c_str());
  }
}

int cmd_compile(const cli::Args& args) {
  flow::CompileSpec spec;
  flow::RunPlan unused;
  if (const int rc = read_unit_flags(args, false, 0, {"format"},
                                     {"disasm", "scan"}, spec, unused)) {
    return rc;
  }
  int rc = 0;
  bool json_format = false;
  if (const auto format = nonempty_value(args, "format", rc)) {
    if (*format != "text" && *format != "json") {
      return usage_error("bad --format value '" + *format +
                         "' (text or json)");
    }
    json_format = *format == "json";
  }
  if (rc != 0) return rc;
  auto unit = flow::CompiledUnit::compile(spec);
  if (!unit.ok()) return toolchain_error(unit.error());
  if (json_format) {
    // The JSON artifact subsumes --disasm/--scan: words, tables, and the
    // full scan report are always present.
    std::fputs(unit.value().to_json().c_str(), stdout);
    return 0;
  }
  print_unit_summary(unit.value());
  if (args.has("disasm")) {
    std::printf("\n%s", unit.value().disassembly().c_str());
  }
  if (args.has("scan")) {
    std::printf("\n");
    print_scan_report(unit.value());
  }
  return 0;
}

// ----------------------------------------------------------------- run ----

int cmd_run(const cli::Args& args) {
  flow::CompileSpec spec;
  flow::RunPlan plan;
  if (const int rc = read_unit_flags(args, true, 0, {}, {}, spec, plan)) {
    return rc;
  }
  auto unit = flow::CompiledUnit::compile(spec);
  if (!unit.ok()) return toolchain_error(unit.error());
  auto result = flow::run(unit.value(), plan);
  if (!result.ok()) return toolchain_error(result.error());

  const flow::ExperimentResult& r = result.value();
  print_unit_summary(unit.value());
  std::printf(
      "run: config %s mode %s\n  cycles            %llu\n"
      "  instructions      %llu\n  continue events   %llu\n"
      "  done events       %llu\n  table writes      %llu\n"
      "  verification      ok\n",
      harness::config_name(plan.config).c_str(),
      std::string(flow::mode_name(plan.mode)).c_str(),
      static_cast<unsigned long long>(r.stats.cycles),
      static_cast<unsigned long long>(r.stats.instructions),
      static_cast<unsigned long long>(r.zolc_stats.continue_events),
      static_cast<unsigned long long>(r.zolc_stats.done_events),
      static_cast<unsigned long long>(r.zolc_stats.table_writes));
  if (plan.mode.fast_path) {
    std::printf(
        "  fast path         %llu/%llu engagements, %llu replayed instrs, "
        "%llu bailouts\n",
        static_cast<unsigned long long>(r.fastpath.engagements),
        static_cast<unsigned long long>(r.fastpath.attempts),
        static_cast<unsigned long long>(r.fastpath.replayed_instructions),
        static_cast<unsigned long long>(r.fastpath.total_bailouts()));
  }
  if (plan.tenants != 1 || plan.preempt_every != 0) {
    std::printf(
        "  tenants           %u\n  ctx switches      %llu\n"
        "  ctx switch cost   %llu cycle(s)\n",
        r.tenants, static_cast<unsigned long long>(r.context_switches),
        static_cast<unsigned long long>(r.context_switch_cycles));
  }
  return 0;
}

// --------------------------------------------------------------- sweep ----

/// Renders a sweep report to --out/stdout per --format. Shared by the grid
/// and --from-file paths of `sweep`.
int emit_sweep_report(const harness::SweepReport& report, bool json_format,
                      const std::optional<std::string>& out_path) {
  const std::string rendered =
      json_format ? report.to_json() : report.to_csv();
  if (out_path) {
    if (const int rc = write_text_file(*out_path, rendered)) return rc;
    std::fprintf(stderr,
                 "wrote %zu cells to %s (%zu compiles, %zu cache hits)\n",
                 report.cells.size(), out_path->c_str(),
                 report.compile_cache_compiles, report.compile_cache_hits);
  } else {
    std::fputs(rendered.c_str(), stdout);
  }
  return 0;
}

int cmd_sweep(const cli::Args& args) {
  // The grid flags -- every axis flag plus these -- shape the experiment;
  // the rest select execution and output.
  std::vector<std::string_view> grid = {"preempt-every", "baseline",
                                        "max-cycles"};
  for (const harness::SweepAxis& axis : harness::sweep_axes()) {
    grid.push_back(axis.flag);
  }
  std::vector<std::string_view> values = {"threads", "format", "out",
                                          "from-file"};
  values.insert(values.end(), grid.begin(), grid.end());
  if (const int rc = reject_unknown_flags(args, values, {})) return rc;
  if (!args.positional.empty()) {
    return usage_error("sweep takes no positional arguments");
  }
  int rc = 0;
  const auto suite_path = nonempty_value(args, "from-file", rc);
  const auto threads = positive_int_flag(args, "threads", rc, 4096);
  const bool json_format = json_format_flag(args, rc);
  const auto out_path = nonempty_value(args, "out", rc);
  if (rc != 0) return rc;

  if (suite_path) {
    // Suite mode: the file is the grid; only execution/output flags apply.
    for (const std::string_view flag : grid) {
      if (args.value_of(flag)) {
        return usage_error("--" + std::string(flag) +
                           " conflicts with --from-file (the suite file "
                           "defines the grid)");
      }
    }
    scenario::RunOptions options;
    if (threads) options.threads = static_cast<unsigned>(*threads);
    auto suite = scenario::load_suite_file(*suite_path);
    if (!suite.ok()) return toolchain_error(suite.error());
    auto outcome =
        scenario::run_suite(suite.value(), process_cache(), options);
    if (!outcome.ok()) return toolchain_error(outcome.error());
    return emit_sweep_report(outcome.value().report, json_format, out_path);
  }

  harness::SweepSpec spec;
  for (const harness::SweepAxis& axis : harness::sweep_axes()) {
    const auto list = nonempty_value(args, axis.flag, rc);
    if (rc != 0) return rc;
    if (!list) continue;
    for (const std::string& item : cli::split_list(*list)) {
      auto added = scenario::append_axis_value(spec, axis.id, item);
      if (!added.ok()) return bad_flag_value(added.error());
    }
  }
  if (const auto every = positive_int_flag(args, "preempt-every", rc)) {
    spec.preempt_every = *every;
  }
  if (const auto baseline = nonempty_value(args, "baseline", rc)) {
    auto parsed = scenario::parse_machine(*baseline);
    if (!parsed.ok()) return bad_flag_value(parsed.error());
    spec.baseline = parsed.value();
  }
  if (const auto cycles = positive_int_flag(args, "max-cycles", rc)) {
    spec.max_cycles = *cycles;
  }
  if (rc != 0) return rc;
  if (threads) spec.threads = static_cast<unsigned>(*threads);

  const auto swept = harness::run_sweep(spec, process_cache());
  if (!swept.ok()) return toolchain_error(swept.error());
  return emit_sweep_report(swept.value(), json_format, out_path);
}

// --------------------------------------------------------------- bench ----

// ----------------------------------------------------- bench --compare ----

/// One data point of a BENCH artifact, keyed for cross-artifact matching.
struct BenchPoint {
  std::string key;  ///< the point's axis labels joined by '|'
  std::uint64_t cycles = 0;
  double mips = 0.0;
};

/// Loads the points of one BENCH_*.json artifact (schema
/// scenario::kBenchSchema only). A gated axis field a point omits (tenants
/// on a single-tenant suite) keys as the axis's default label.
Result<std::vector<BenchPoint>> load_bench_points(const std::string& path) {
  auto text = read_text_file(path);
  if (!text.ok()) return std::move(text).error();
  auto document = json::parse(text.value());
  if (!document.ok()) {
    return std::move(document).error().with_context("artifact " + path);
  }
  const json::Value& root = document.value();
  const json::Value* schema = root.find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->as_string() != scenario::kBenchSchema) {
    return Error{ErrorCode::kParse, "'" + path + "' is not a " +
                                        std::string(scenario::kBenchSchema) +
                                        " BENCH artifact"};
  }
  const json::Value* points = root.find("points");
  if (points == nullptr || !points->is_array()) {
    return Error{ErrorCode::kParse, "'" + path + "' has no points array"};
  }
  std::vector<BenchPoint> out;
  for (const json::Value& point : points->items()) {
    BenchPoint p;
    for (const harness::SweepAxis& axis : harness::sweep_axes()) {
      if (!p.key.empty()) p.key += '|';
      const json::Value* v = point.find(axis.column);
      if (v == nullptr && !axis.bench_always) {
        p.key += axis.default_label;
        continue;
      }
      if (v == nullptr || (axis.numeric ? !v->as_uint() : !v->is_string())) {
        return Error{ErrorCode::kParse,
                     "'" + path + "' point lacks a valid '" +
                         std::string(axis.column) + "'"};
      }
      p.key += axis.numeric ? std::to_string(*v->as_uint()) : v->as_string();
    }
    const json::Value* cycles = point.find("cycles");
    const auto n = cycles ? cycles->as_uint() : std::nullopt;
    if (!n) {
      return Error{ErrorCode::kParse,
                   "'" + path + "' point lacks an integer 'cycles'"};
    }
    p.cycles = *n;
    if (const json::Value* mips = point.find("mips");
        mips != nullptr && mips->is_number()) {
      p.mips = mips->as_number();
    }
    out.push_back(std::move(p));
  }
  return out;
}

/// Lists the BENCH_*.json artifacts directly under `dir`, sorted by name.
Result<std::vector<std::string>> list_bench_artifacts(const std::string& dir) {
  auto files = scenario::list_suite_files(dir);  // *.json, sorted
  if (!files.ok()) return std::move(files).error();
  std::vector<std::string> artifacts;
  for (std::string& path : files.value()) {
    const std::string name = std::filesystem::path(path).filename().string();
    if (name.rfind("BENCH_", 0) == 0) artifacts.push_back(std::move(path));
  }
  return artifacts;
}

/// `bench --compare OLD NEW`: matches artifacts by file name and points by
/// their axis labels. Cycle counts must be exactly equal (they are
/// deterministic); MIPS may regress up to `tolerance` percent (they are
/// host measurements). Exit 1 on any violation.
int cmd_bench_compare(const cli::Args& args) {
  if (const int rc =
          reject_unknown_flags(args, {"tolerance"}, {"compare"})) {
    return rc;
  }
  if (args.positional.size() != 2) {
    return usage_error("bench --compare takes exactly two directories");
  }
  int rc = 0;
  double tolerance = 10.0;
  if (const auto pct = positive_int_flag(args, "tolerance", rc, 1000)) {
    tolerance = static_cast<double>(*pct);
  }
  if (rc != 0) return rc;

  const auto old_files = list_bench_artifacts(args.positional[0]);
  if (!old_files.ok()) return toolchain_error(old_files.error());
  const auto new_files = list_bench_artifacts(args.positional[1]);
  if (!new_files.ok()) return toolchain_error(new_files.error());
  if (old_files.value().empty() || new_files.value().empty()) {
    return toolchain_error(
        Error{ErrorCode::kIo, "no BENCH_*.json artifacts to compare"});
  }

  int violations = 0;
  std::size_t matched_points = 0;
  for (const std::string& new_path : new_files.value()) {
    const std::string name =
        std::filesystem::path(new_path).filename().string();
    const std::string old_path = args.positional[0] + "/" + name;
    if (!std::filesystem::exists(old_path)) {
      std::printf("%-28s only in %s (skipped)\n", name.c_str(),
                  args.positional[1].c_str());
      continue;
    }
    auto old_points = load_bench_points(old_path);
    if (!old_points.ok()) return toolchain_error(old_points.error());
    auto new_points = load_bench_points(new_path);
    if (!new_points.ok()) return toolchain_error(new_points.error());

    for (const BenchPoint& np : new_points.value()) {
      const auto op = std::find_if(
          old_points.value().begin(), old_points.value().end(),
          [&np](const BenchPoint& p) { return p.key == np.key; });
      if (op == old_points.value().end()) continue;  // new grid point
      ++matched_points;
      const double mips_delta_pct =
          op->mips > 0.0 ? 100.0 * (np.mips - op->mips) / op->mips : 0.0;
      const bool cycles_differ = np.cycles != op->cycles;
      const bool mips_regressed = mips_delta_pct < -tolerance;
      if (cycles_differ) {
        std::printf("FAIL %-52s cycles %llu -> %llu\n", np.key.c_str(),
                    static_cast<unsigned long long>(op->cycles),
                    static_cast<unsigned long long>(np.cycles));
        ++violations;
      } else if (mips_regressed) {
        std::printf("FAIL %-52s mips %.2f -> %.2f (%.1f%%)\n", np.key.c_str(),
                    op->mips, np.mips, mips_delta_pct);
        ++violations;
      } else {
        std::printf("ok   %-52s cycles %llu  mips %.2f -> %.2f (%+.1f%%)\n",
                    np.key.c_str(),
                    static_cast<unsigned long long>(np.cycles), op->mips,
                    np.mips, mips_delta_pct);
      }
    }
  }
  std::printf("%zu matched points, %d violation(s), tolerance %.0f%%\n",
              matched_points, violations, tolerance);
  if (matched_points == 0) {
    return toolchain_error(Error{
        ErrorCode::kBadConfig, "the artifact sets share no data points"});
  }
  return violations == 0 ? 0 : 1;
}

int cmd_bench(const cli::Args& args) {
  if (args.has("compare")) return cmd_bench_compare(args);
  if (const int rc = reject_unknown_flags(
          args, {"suite-dir", "out-dir", "threads"}, {})) {
    return rc;
  }
  if (!args.positional.empty()) {
    return usage_error("bench takes no positional arguments");
  }
  int rc = 0;
  const auto suite_dir = nonempty_value(args, "suite-dir", rc);
  if (rc != 0) return rc;
  if (!suite_dir) return usage_error("bench requires --suite-dir=DIR");
  scenario::RunOptions options;
  if (const auto threads = positive_int_flag(args, "threads", rc, 4096)) {
    options.threads = static_cast<unsigned>(*threads);
  }
  if (rc != 0) return rc;

  const auto files = scenario::list_suite_files(*suite_dir);
  if (!files.ok()) return toolchain_error(files.error());
  if (files.value().empty()) {
    return toolchain_error(Error{
        ErrorCode::kIo, "no *.json suite files in '" + *suite_dir + "'"});
  }
  const std::string out_dir = out_dir_flag(args, rc);
  if (rc != 0) return rc;

  for (const std::string& path : files.value()) {
    auto suite = scenario::load_suite_file(path);
    if (!suite.ok()) return toolchain_error(suite.error());
    auto outcome =
        scenario::run_suite(suite.value(), process_cache(), options);
    if (!outcome.ok()) return toolchain_error(outcome.error());
    const scenario::SuiteOutcome& done = outcome.value();

    const std::string artifact = out_dir + "/" +
                                 scenario::bench_artifact_name(done.suite);
    if (const int write_rc =
            write_text_file(artifact, scenario::bench_artifact_json(done))) {
      return write_rc;
    }
    std::printf("suite %-20s %4zu cells  golden %-9s %7.2fs  %8.2f MIPS\n",
                done.suite.name.c_str(), done.report.cells.size(),
                done.golden_checked ? "match" : "unchecked",
                done.wall_seconds, done.mips);
  }
  const flow::CompileCache::Stats cache = process_cache().stats();
  std::printf("compile cache: %zu compiles, %zu memory hits across %zu "
              "suites\n",
              cache.compiles, cache.hits, files.value().size());
  return 0;
}

// --------------------------------------------------------------- serve ----

/// SIGTERM/SIGINT both request a graceful drain; the serve loop polls this
/// flag (a handler cannot touch the server's mutexes directly).
volatile std::sig_atomic_t g_serve_terminate = 0;

void on_serve_terminate(int) { g_serve_terminate = 1; }

int cmd_serve(const cli::Args& args) {
  if (const int rc = reject_unknown_flags(
          args,
          {"socket", "workers", "sweep-threads", "idle-timeout-ms"},
          {})) {
    return rc;
  }
  if (!args.positional.empty()) {
    return usage_error("serve takes no positional arguments");
  }
  int rc = 0;
  server::ServeOptions options;
  const auto socket = nonempty_value(args, "socket", rc);
  if (rc != 0) return rc;
  if (!socket) return usage_error("serve requires --socket=PATH");
  options.socket_path = *socket;
  if (const auto workers = positive_int_flag(args, "workers", rc, 256)) {
    options.workers = static_cast<unsigned>(*workers);
  }
  if (const auto threads =
          positive_int_flag(args, "sweep-threads", rc, 4096)) {
    options.sweep_threads = static_cast<unsigned>(*threads);
  }
  if (const auto idle =
          positive_int_flag(args, "idle-timeout-ms", rc, 3'600'000)) {
    options.idle_timeout_ms = static_cast<unsigned>(*idle);
  }
  if (rc != 0) return rc;

  server::Server daemon(std::move(options));
  if (auto started = daemon.start(); !started.ok()) {
    return toolchain_error(started.error());
  }
  std::signal(SIGTERM, on_serve_terminate);
  std::signal(SIGINT, on_serve_terminate);
  std::fprintf(stderr, "serving %s on %s (%u workers)\n",
               std::string(server::kServeSchema).c_str(),
               daemon.options().socket_path.c_str(),
               daemon.options().workers);

  // Runs until a client "shutdown" request drains the daemon or a signal
  // asks us to. Either way in-flight requests finish first.
  while (!daemon.draining()) {
    if (g_serve_terminate != 0) {
      daemon.begin_drain();
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  daemon.wait();
  const server::ServerStats stats = daemon.stats();
  std::fprintf(stderr,
               "drained: %llu request(s), %llu connection(s), "
               "%llu error repl%s\n",
               static_cast<unsigned long long>(stats.requests),
               static_cast<unsigned long long>(stats.connections),
               static_cast<unsigned long long>(stats.errors),
               stats.errors == 1 ? "y" : "ies");
  return 0;
}

// -------------------------------------------------------------- client ----

/// Builds the compile / run request JSON from the client flags. They are
/// read by the local verbs' reader, so the client rejects exactly what
/// `zolcsim compile|run` rejects, then each present flag travels as its
/// member (integers as bare JSON numbers). Returns 0 and fills `payload`,
/// or an exit code.
int build_client_unit_request(const cli::Args& args, bool run,
                              std::string& payload) {
  flow::CompileSpec spec;
  flow::RunPlan plan;
  if (const int rc =
          read_unit_flags(args, run, 1, {"socket"}, {}, spec, plan)) {
    return rc;
  }
  payload = "{\"schema\": \"" + std::string(server::kServeSchema) +
            "\", \"type\": \"" + (run ? "run" : "compile") +
            "\", \"kernel\": \"" + json::escape(spec.kernel) + "\"";
  for (const scenario::RunOption& option : scenario::run_options()) {
    const auto text = args.value_of(option.flag);
    if (!text) continue;  // run-only flags were rejected for compile
    payload += ", \"" + std::string(option.member) + "\": ";
    payload += option.integer ? std::to_string(*parse_int(*text))
                              : "\"" + json::escape(*text) + "\"";
  }
  payload += "}";
  return 0;
}

/// Digs `object.member` out of a reply ("cache.compiles"); nullopt when the
/// reply lacks it.
std::optional<std::uint64_t> nested_reply_uint(const json::Value& reply,
                                               std::string_view object,
                                               std::string_view member) {
  const json::Value* group = reply.find(object);
  if (group == nullptr || !group->is_object()) return std::nullopt;
  const json::Value* value = group->find(member);
  if (value == nullptr) return std::nullopt;
  return value->as_uint();
}

/// The sweep action: prints/writes the rendered report carried by the
/// reply (byte-identical to the local `sweep --from-file` rendering) and
/// enforces the --expect-zero-compiles warm-serving assertion.
int client_sweep_reply(const cli::Args& args, const json::Value& reply) {
  auto output = server::reply_string(reply, "output");
  if (!output.ok()) return toolchain_error(output.error());
  int rc = 0;
  const auto out_path = nonempty_value(args, "out", rc);
  if (rc != 0) return rc;
  if (out_path) {
    if (const int write_rc = write_text_file(*out_path, output.value())) {
      return write_rc;
    }
  } else {
    std::fputs(output.value().c_str(), stdout);
  }
  const auto compiles = nested_reply_uint(reply, "cache", "compiles");
  if (args.has("expect-zero-compiles") && compiles.value_or(1) != 0) {
    return toolchain_error(Error{
        ErrorCode::kVerifyMismatch,
        std::to_string(compiles.value_or(0)) +
            " unit(s) compiled despite --expect-zero-compiles (the "
            "daemon's warm cache should have served them)"});
  }
  return 0;
}

/// The bench-suite action: writes the BENCH_<suite>.json artifact carried
/// by the reply into --out-dir.
int client_bench_reply(const cli::Args& args, const json::Value& reply) {
  auto name = server::reply_string(reply, "artifact_name");
  if (!name.ok()) return toolchain_error(name.error());
  auto artifact = server::reply_string(reply, "artifact");
  if (!artifact.ok()) return toolchain_error(artifact.error());
  int rc = 0;
  const std::string out_dir = out_dir_flag(args, rc);
  if (rc != 0) return rc;
  const std::string path = out_dir + "/" + name.value();
  if (const int write_rc = write_text_file(path, artifact.value())) {
    return write_rc;
  }
  std::fprintf(stderr, "wrote %s\n", path.c_str());
  return 0;
}

int cmd_client(const cli::Args& args) {
  if (args.positional.empty()) {
    return usage_error(
        "client requires an action (ping, compile, run, sweep, "
        "bench-suite, stats, shutdown)");
  }
  const std::string& action = args.positional.front();
  std::string payload;
  for (const server::RequestType type :
       {server::RequestType::kPing, server::RequestType::kStats,
        server::RequestType::kShutdown}) {
    if (action == server::request_type_name(type)) {
      payload = server::simple_request(type);
    }
  }
  // Each action takes only its own flags, checked before connecting.
  int rc = 0;
  if (action == "compile" || action == "run") {
    rc = build_client_unit_request(args, action == "run", payload);
  } else if (action == "sweep") {
    rc = reject_unknown_flags(args, {"socket", "from-file", "format", "out"},
                              {"expect-zero-compiles"});
  } else if (action == "bench-suite") {
    rc = reject_unknown_flags(args, {"socket", "from-file", "out-dir"}, {});
  } else if (!payload.empty()) {
    rc = reject_unknown_flags(args, {"socket"}, {});
  } else {
    return usage_error("unknown client action '" + action + "'");
  }
  if (rc != 0) return rc;
  if (action == "sweep" || action == "bench-suite") {
    const auto suite_path = nonempty_value(args, "from-file", rc);
    if (rc != 0) return rc;
    if (!suite_path) {
      return usage_error("client " + action + " requires --from-file=SUITE");
    }
    auto text = read_text_file(*suite_path);
    if (!text.ok()) return toolchain_error(text.error());
    const bool json_format = json_format_flag(args, rc);
    if (rc != 0) return rc;
    auto request = action == "sweep"
                       ? server::sweep_request(text.value(), json_format)
                       : server::bench_suite_request(text.value());
    if (!request.ok()) return toolchain_error(request.error());
    payload = std::move(request).value();
  }
  const auto socket = nonempty_value(args, "socket", rc);
  if (rc != 0) return rc;
  if (!socket) return usage_error("client requires --socket=PATH");

  auto client = server::Client::connect(*socket);
  if (!client.ok()) return toolchain_error(client.error());
  auto raw = client.value().call_raw(payload);
  if (!raw.ok()) return toolchain_error(raw.error());
  auto reply = server::parse_reply(raw.value());
  if (!reply.ok()) return toolchain_error(reply.error());

  if (action == "sweep") return client_sweep_reply(args, reply.value());
  if (action == "bench-suite") return client_bench_reply(args, reply.value());
  std::printf("%s\n", raw.value().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage_error("missing command");
  const std::string command = argv[1];
  const cli::Args args = cli::Args::parse(argc, argv, 2);
  if (command == "list") return cmd_list();
  if (command == "compile") return cmd_compile(args);
  if (command == "run") return cmd_run(args);
  if (command == "sweep") return cmd_sweep(args);
  if (command == "bench") return cmd_bench(args);
  if (command == "serve") return cmd_serve(args);
  if (command == "client") return cmd_client(args);
  if (command == "help" || command == "--help" || command == "-h") {
    std::fputs(kUsage, stdout);
    return 0;
  }
  return usage_error("unknown command '" + command + "'");
}
