// String forms of the sweep axes (machine / ZOLC geometry / pipeline
// config / execution mode / tenant count), matching the labels the sweep
// emitters print (harness::sweep_axes()) so report output and declarative
// input round-trip, and the run-option table that names one unit and one
// run. Shared by the zolcsim CLI flags, the scenario-suite parser and the
// serve protocol; every error is kBadConfig unless noted.
#ifndef ZOLCSIM_SCENARIO_PARSE_HPP
#define ZOLCSIM_SCENARIO_PARSE_HPP

#include <span>
#include <string_view>

#include "codegen/program.hpp"
#include "common/result.hpp"
#include "cpu/pipeline.hpp"
#include "flow/run.hpp"
#include "harness/sweep.hpp"
#include "zolc/config.hpp"

namespace zolcsim::scenario {

/// "XRdefault" | "XRhrdwil" | "uZOLC" | "ZOLClite" | "ZOLCfull"
/// (case-insensitive).
[[nodiscard]] Result<codegen::MachineKind> parse_machine(std::string_view s);

/// "Nt-Nl-Nx-Ne[-pB]" -- the ZolcGeometry::label() form, e.g. "32t-8l-4x-4e"
/// or "64t-12l-4x-4e-p14".
[[nodiscard]] Result<zolc::ZolcGeometry> parse_geometry(std::string_view s);

/// "EX-resolve|ID-resolve" "/rollback|/gate" ["/nofwd"] -- the
/// harness::config_name() form.
[[nodiscard]] Result<cpu::PipelineConfig> parse_config(std::string_view s);

/// "pipeline" | "iss" | "iss-fast" -- the flow::mode_name() form.
[[nodiscard]] Result<flow::ExecMode> parse_mode(std::string_view s);

/// Largest tenant count a run or sweep accepts.
inline constexpr unsigned kMaxTenants = 64;

/// "1" .. "64" -- the number of workloads time-sliced over one controller.
[[nodiscard]] Result<unsigned> parse_tenants(std::string_view s);

/// Parses one value of `axis` in its label form and appends it to the
/// matching SweepSpec vector: the one grammar behind `zolcsim sweep
/// --<flag>=a,b` and a suite's sweep members. An unknown kernel name fails
/// with kUnknownKernel.
[[nodiscard]] Result<void> append_axis_value(harness::SweepSpec& spec,
                                             harness::Axis axis,
                                             std::string_view s);

/// The machine a compile or run uses when no option names one.
inline constexpr codegen::MachineKind kDefaultMachine =
    codegen::MachineKind::kZolcFull;

/// One option of a compile or run: the single definition behind the
/// `zolcsim compile|run` flags, `zolcsim client compile|run` and the serve
/// compile/run request members.
struct RunOption {
  std::string_view flag;    ///< CLI flag, "max-cycles"
  std::string_view member;  ///< serve request member, "max_cycles"
  bool run_only;            ///< compile takes machine and geometry only
  bool integer;             ///< the member is a JSON integer, not a string
  /// Parses `text` (the flag value, or the member as text) into its field
  /// of `spec` or `plan`. 0 and other out-of-range values are kBadConfig.
  Result<void> (*apply)(std::string_view text, flow::CompileSpec& spec,
                        flow::RunPlan& plan);
};

/// The six options: machine, geometry, config, mode, max-cycles, tenants.
[[nodiscard]] std::span<const RunOption> run_options();

}  // namespace zolcsim::scenario

#endif  // ZOLCSIM_SCENARIO_PARSE_HPP
