#include "scenario/parse.hpp"

#include <cstdint>
#include <string>
#include <vector>

#include "common/strings.hpp"
#include "kernels/kernels.hpp"

namespace zolcsim::scenario {

namespace {

Error bad_config(std::string msg) {
  return Error{ErrorCode::kBadConfig, std::move(msg)};
}

/// Parses the "<number><suffix>" geometry segments ("32t", "8l", ...).
Result<unsigned> geometry_field(std::string_view seg, char suffix) {
  if (seg.empty() || seg.back() != suffix) {
    return bad_config(std::string("expected a '") + suffix +
                      "' geometry segment, got '" + std::string(seg) + "'");
  }
  const auto n = parse_int(seg.substr(0, seg.size() - 1));
  if (!n || *n < 0 || *n > 0xFFFF) {  // every table count fits well below
    return bad_config("bad geometry segment '" + std::string(seg) + "'");
  }
  return static_cast<unsigned>(*n);
}

/// A strictly positive integer (cycle budget).
Result<std::uint64_t> parse_positive(std::string_view s) {
  const auto n = parse_int(s);
  if (!n || *n <= 0) {
    return bad_config("bad count '" + std::string(s) +
                      "' (want a positive integer)");
  }
  return static_cast<std::uint64_t>(*n);
}

/// Stores a parsed value into `field`.
template <typename T>
Result<void> assign(T& field, Result<T> parsed) {
  if (!parsed.ok()) return std::move(parsed).error();
  field = std::move(parsed).value();
  return {};
}

/// RunOption::apply for an option parsed by `parse` into `spec.*field`.
template <auto field, auto parse>
Result<void> into_spec(std::string_view s, flow::CompileSpec& spec,
                       flow::RunPlan&) {
  return assign(spec.*field, parse(s));
}

/// RunOption::apply for an option parsed by `parse` into `plan.*field`.
template <auto field, auto parse>
Result<void> into_plan(std::string_view s, flow::CompileSpec&,
                       flow::RunPlan& plan) {
  return assign(plan.*field, parse(s));
}

constexpr RunOption kRunOptions[] = {
    {"machine", "machine", false, false,
     into_spec<&flow::CompileSpec::machine, parse_machine>},
    {"geometry", "geometry", false, false,
     into_spec<&flow::CompileSpec::geometry, parse_geometry>},
    {"config", "config", true, false,
     into_plan<&flow::RunPlan::config, parse_config>},
    {"mode", "mode", true, false, into_plan<&flow::RunPlan::mode, parse_mode>},
    {"max-cycles", "max_cycles", true, true,
     into_plan<&flow::RunPlan::max_cycles, parse_positive>},
    {"tenants", "tenants", true, true,
     into_plan<&flow::RunPlan::tenants, parse_tenants>},
};

}  // namespace

Result<codegen::MachineKind> parse_machine(std::string_view s) {
  const std::string lower = to_lower(s);
  for (const codegen::MachineKind machine : codegen::kAllMachines) {
    if (lower == to_lower(codegen::machine_name(machine))) {
      return machine;
    }
  }
  std::string known;
  for (const codegen::MachineKind machine : codegen::kAllMachines) {
    if (!known.empty()) known += ", ";
    known += codegen::machine_name(machine);
  }
  return bad_config("unknown machine '" + std::string(s) + "' (known: " +
                    known + ")");
}

Result<zolc::ZolcGeometry> parse_geometry(std::string_view s) {
  const std::vector<std::string_view> segs = split(s, '-');
  if (segs.size() != 4 && segs.size() != 5) {
    return bad_config("geometry must look like 32t-8l-4x-4e[-p14], got '" +
                      std::string(s) + "'");
  }
  zolc::ZolcGeometry g;
  const char suffixes[4] = {'t', 'l', 'x', 'e'};
  unsigned* fields[4] = {&g.max_tasks, &g.max_loops, &g.max_exits_per_loop,
                         &g.max_entries_per_loop};
  for (int i = 0; i < 4; ++i) {
    auto field = geometry_field(segs[static_cast<std::size_t>(i)],
                                suffixes[i]);
    if (!field.ok()) return std::move(field).error();
    *fields[i] = field.value();
  }
  if (segs.size() == 5) {
    const std::string_view seg = segs[4];
    if (seg.size() < 2 || seg.front() != 'p') {
      return bad_config("bad geometry PC-width segment '" + std::string(seg) +
                        "' (expected e.g. p14)");
    }
    const auto bits = parse_int(seg.substr(1));
    if (!bits || *bits <= 0 || *bits > 64) {
      return bad_config("bad geometry PC-width segment '" + std::string(seg) +
                        "'");
    }
    g.pc_ofs_bits = static_cast<unsigned>(*bits);
  }
  if (!g.valid()) {
    return bad_config("invalid ZOLC geometry " + g.label());
  }
  return g;
}

Result<cpu::PipelineConfig> parse_config(std::string_view s) {
  cpu::PipelineConfig config;
  bool saw_resolve = false;
  bool saw_policy = false;
  for (const std::string_view part : split(s, '/')) {
    const std::string lower = to_lower(part);
    if (lower == "ex-resolve" || lower == "id-resolve") {
      if (saw_resolve) {
        return bad_config("conflicting resolve-stage tokens in '" +
                          std::string(s) + "'");
      }
      config.branch_resolve = lower == "ex-resolve"
                                  ? cpu::BranchResolveStage::kExecute
                                  : cpu::BranchResolveStage::kDecode;
      saw_resolve = true;
    } else if (lower == "rollback" || lower == "gate") {
      if (saw_policy) {
        return bad_config("conflicting speculation-policy tokens in '" +
                          std::string(s) + "'");
      }
      config.speculation = lower == "rollback"
                               ? cpu::SpeculationPolicy::kRollback
                               : cpu::SpeculationPolicy::kGate;
      saw_policy = true;
    } else if (lower == "nofwd") {
      config.forwarding = false;
    } else {
      return bad_config("unknown pipeline-config token '" +
                        std::string(part) +
                        "' (expected EX-resolve|ID-resolve, rollback|gate, "
                        "nofwd)");
    }
  }
  if (!saw_resolve || !saw_policy) {
    return bad_config("pipeline config needs a resolve stage and a "
                      "speculation policy, e.g. EX-resolve/rollback");
  }
  return config;
}

Result<flow::ExecMode> parse_mode(std::string_view s) {
  const std::string lower = to_lower(s);
  flow::ExecMode mode;
  if (lower == "pipeline") return mode;
  mode.engine = flow::SimEngine::kIss;
  if (lower == "iss") return mode;
  mode.fast_path = true;
  if (lower == "iss-fast") return mode;
  return bad_config("unknown execution mode '" + std::string(s) +
                    "' (known: pipeline, iss, iss-fast)");
}

Result<unsigned> parse_tenants(std::string_view s) {
  const auto n = parse_int(s);
  if (!n || *n <= 0 || *n > kMaxTenants) {
    return bad_config("bad tenant count '" + std::string(s) +
                      "' (want an integer in [1, " +
                      std::to_string(kMaxTenants) + "])");
  }
  return static_cast<unsigned>(*n);
}

Result<void> append_axis_value(harness::SweepSpec& spec, harness::Axis axis,
                               std::string_view s) {
  // Parses with `parse` and appends the value to `values`.
  const auto append = [s](auto& values, auto parse) -> Result<void> {
    auto parsed = parse(s);
    if (!parsed.ok()) return std::move(parsed).error();
    values.push_back(std::move(parsed).value());
    return {};
  };
  switch (axis) {
    case harness::Axis::kKernel:
      if (kernels::find_kernel(s) == nullptr) {
        return Error{ErrorCode::kUnknownKernel,
                     "unknown kernel '" + std::string(s) + "'"};
      }
      spec.kernels.emplace_back(s);
      return {};
    case harness::Axis::kMachine:
      return append(spec.machines, parse_machine);
    case harness::Axis::kConfig:
      return append(spec.configs, parse_config);
    case harness::Axis::kGeometry:
      return append(spec.geometries, parse_geometry);
    case harness::Axis::kMode:
      return append(spec.modes, parse_mode);
    case harness::Axis::kTenant:
      return append(spec.tenants, parse_tenants);
  }
  return bad_config("unknown sweep axis");
}

std::span<const RunOption> run_options() { return kRunOptions; }

}  // namespace zolcsim::scenario
