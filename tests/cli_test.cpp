// zolcsim CLI argument parsing: the string forms of the sweep axes must
// round-trip with the labels the sweep emitters print, bad input must fail
// with kBadConfig (never crash), argv splits into flags and positionals,
// and every run option reads the same from its flag as from its serve
// request member.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "cli.hpp"
#include "harness/sweep.hpp"
#include "scenario/parse.hpp"
#include "server/protocol.hpp"

namespace zolcsim::cli {
namespace {

using codegen::MachineKind;
using scenario::parse_config;
using scenario::parse_geometry;
using scenario::parse_machine;

TEST(CliParse, MachineNamesRoundTrip) {
  for (const MachineKind machine : codegen::kAllMachines) {
    const auto parsed =
        parse_machine(std::string(codegen::machine_name(machine)));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), machine);
  }
  EXPECT_TRUE(parse_machine("zolcfull").ok());  // case-insensitive
  const auto bad = parse_machine("Pentium");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().code, ErrorCode::kBadConfig);
}

TEST(CliParse, GeometryLabelsRoundTrip) {
  for (const zolc::ZolcGeometry geometry :
       {zolc::ZolcGeometry{}, zolc::ZolcGeometry{32, 12, 0, 0},
        zolc::ZolcGeometry{64, 16, 4, 4, 14}}) {
    const auto parsed = parse_geometry(geometry.label());
    ASSERT_TRUE(parsed.ok()) << geometry.label();
    EXPECT_EQ(parsed.value(), geometry);
  }
  for (const char* bad : {"", "32t", "32t-8l-4x-4e-q14", "at-8l-4x-4e",
                          "32t-64l-4x-4e" /* invalid geometry */}) {
    const auto parsed = parse_geometry(bad);
    ASSERT_FALSE(parsed.ok()) << bad;
    EXPECT_EQ(parsed.error().code, ErrorCode::kBadConfig);
  }
}

TEST(CliParse, ConfigNamesRoundTrip) {
  for (const cpu::PipelineConfig config :
       {cpu::PipelineConfig{cpu::BranchResolveStage::kExecute,
                            cpu::SpeculationPolicy::kRollback, true},
        cpu::PipelineConfig{cpu::BranchResolveStage::kDecode,
                            cpu::SpeculationPolicy::kGate, true},
        cpu::PipelineConfig{cpu::BranchResolveStage::kExecute,
                            cpu::SpeculationPolicy::kRollback, false}}) {
    const auto parsed = parse_config(harness::config_name(config));
    ASSERT_TRUE(parsed.ok()) << harness::config_name(config);
    EXPECT_EQ(parsed.value().branch_resolve, config.branch_resolve);
    EXPECT_EQ(parsed.value().speculation, config.speculation);
    EXPECT_EQ(parsed.value().forwarding, config.forwarding);
  }
  EXPECT_FALSE(parse_config("EX-resolve").ok());  // missing policy
  EXPECT_FALSE(parse_config("warp-speed/rollback").ok());
  EXPECT_EQ(parse_config("").error().code, ErrorCode::kBadConfig);
  // Contradictory tokens are rejected, not silently last-wins.
  EXPECT_FALSE(parse_config("ID-resolve/EX-resolve/gate").ok());
  EXPECT_FALSE(parse_config("EX-resolve/rollback/gate").ok());
}

TEST(CliParse, TenantCountsAreBounded) {
  EXPECT_EQ(scenario::parse_tenants("1").value(), 1u);
  EXPECT_EQ(scenario::parse_tenants("64").value(), scenario::kMaxTenants);
  for (const char* bad : {"0", "65", "-1", "two", ""}) {
    const auto parsed = scenario::parse_tenants(bad);
    ASSERT_FALSE(parsed.ok()) << bad;
    EXPECT_EQ(parsed.error().code, ErrorCode::kBadConfig);
  }
}

TEST(CliParse, EveryAxisLabelParsesBackToItsPoint) {
  // The report's labels on each axis are exactly what that axis's parser
  // accepts, so a rendered grid can be fed back as sweep flags.
  harness::SweepReport report;
  report.kernels = {"fir", "deepnest10"};
  report.machines = {MachineKind::kXrDefault, MachineKind::kZolcFull};
  report.configs = {cpu::PipelineConfig{},
                    cpu::PipelineConfig{cpu::BranchResolveStage::kDecode,
                                        cpu::SpeculationPolicy::kGate,
                                        false}};
  report.geometries = {zolc::ZolcGeometry{},
                       zolc::ZolcGeometry{64, 16, 4, 4, 14}};
  report.modes = {flow::ExecMode{},
                  flow::ExecMode{flow::SimEngine::kIss, true}};
  report.tenants = {1, 3};
  harness::SweepSpec spec;
  for (const harness::SweepAxis& axis : harness::sweep_axes()) {
    for (std::size_t i = 0; i < axis.size(report); ++i) {
      const auto added =
          scenario::append_axis_value(spec, axis.id, axis.label(report, i));
      ASSERT_TRUE(added.ok()) << axis.label(report, i);
    }
  }
  EXPECT_EQ(spec.kernels, report.kernels);
  EXPECT_EQ(spec.machines, report.machines);
  ASSERT_EQ(spec.configs.size(), 2u);
  EXPECT_EQ(harness::config_name(spec.configs[1]),
            harness::config_name(report.configs[1]));
  EXPECT_EQ(spec.geometries, report.geometries);
  EXPECT_EQ(spec.modes, report.modes);
  EXPECT_EQ(spec.tenants, report.tenants);

  const auto unknown = scenario::append_axis_value(
      spec, harness::Axis::kKernel, "no_such_kernel");
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.error().code, ErrorCode::kUnknownKernel);
}

TEST(CliParse, ArgsSplitFlagsAndPositionals) {
  const char* argv[] = {"zolcsim", "run", "fir", "--machine=ZOLClite",
                        "--scan", "--max-cycles=1000",
                        "--kernels="};
  const Args args = Args::parse(7, const_cast<char**>(argv), 2);
  ASSERT_EQ(args.positional.size(), 1u);
  EXPECT_EQ(args.positional.front(), "fir");
  EXPECT_EQ(args.value_of("machine"), "ZOLClite");
  EXPECT_EQ(args.value_of("max-cycles"), "1000");
  // Absent flag vs explicitly empty value are distinguishable, so the
  // driver can reject "--kernels=" instead of sweeping the full suite.
  EXPECT_FALSE(args.value_of("absent").has_value());
  ASSERT_TRUE(args.value_of("kernels").has_value());
  EXPECT_TRUE(args.value_of("kernels")->empty());
  EXPECT_TRUE(args.has("scan"));
  EXPECT_FALSE(args.has("machine"));  // value flag, not a switch
  EXPECT_TRUE(
      args.unknown({"machine", "max-cycles", "kernels"}, {"scan"}).empty());
  EXPECT_EQ(args.unknown({"machine", "kernels"}, {"scan"}).size(), 1u);
}

TEST(CliParse, EveryRunOptionReadsTheSameFromFlagAndMember) {
  // A non-default value per option, so a flag or member wired to the wrong
  // field shows up as a difference from the defaults.
  const std::map<std::string, std::string> samples = {
      {"machine", "ZOLClite"},
      {"geometry", "64t-12l-4x-4e-p14"},
      {"config", "ID-resolve/gate/nofwd"},
      {"mode", "iss-fast"},
      {"max-cycles", "12345"},
      {"tenants", "3"}};
  // The fields a run option can set.
  const auto fields = [](const flow::CompileSpec& spec,
                         const flow::RunPlan& plan) {
    return spec.key() + "|" + harness::config_name(plan.config) + "|" +
           std::string(flow::mode_name(plan.mode)) + "|" +
           std::to_string(plan.max_cycles) + "|" +
           std::to_string(plan.tenants);
  };
  ASSERT_EQ(scenario::run_options().size(), samples.size());
  for (const scenario::RunOption& option : scenario::run_options()) {
    const std::string flag(option.flag);
    SCOPED_TRACE(flag);
    ASSERT_EQ(samples.count(flag), 1u);
    const std::string& text = samples.at(flag);

    const std::string arg = "--" + flag + "=" + text;
    const char* argv[] = {"zolcsim", "run", "dotprod", arg.c_str()};
    const Args args = Args::parse(4, const_cast<char**>(argv), 2);
    flow::CompileSpec spec;
    spec.kernel = "dotprod";
    flow::RunPlan plan;
    ASSERT_TRUE(read_run_options(args, true, spec, plan).ok());

    const std::string value = option.integer ? text : "\"" + text + "\"";
    auto request = server::parse_request(
        R"({"schema": "zolcsim-serve-v1", "type": "run",)"
        R"( "kernel": "dotprod", ")" +
        std::string(option.member) + "\": " + value + "}");
    ASSERT_TRUE(request.ok()) << request.error().to_string();

    EXPECT_EQ(fields(spec, plan),
              fields(request.value().spec, request.value().plan));
    flow::CompileSpec default_spec;
    default_spec.kernel = "dotprod";
    default_spec.machine = scenario::kDefaultMachine;
    EXPECT_NE(fields(spec, plan), fields(default_spec, flow::RunPlan{}));
    // compile reads exactly the options that are not run-only.
    flow::CompileSpec compile_spec;
    compile_spec.kernel = "dotprod";
    flow::RunPlan compile_plan;
    ASSERT_TRUE(read_run_options(args, false, compile_spec, compile_plan).ok());
    EXPECT_EQ(fields(compile_spec, compile_plan),
              option.run_only ? fields(default_spec, flow::RunPlan{})
                              : fields(spec, plan));
  }
}

TEST(CliParse, SplitListAndErrorRendering) {
  EXPECT_TRUE(split_list("").empty());
  const auto items = split_list("a,b,c");
  ASSERT_EQ(items.size(), 3u);
  EXPECT_EQ(items[2], "c");
  const Error error =
      Error{ErrorCode::kCapacity, "exit records"}.with_context("me_tss");
  EXPECT_EQ(render_error(error), "error[capacity]: me_tss: exit records");
}

}  // namespace
}  // namespace zolcsim::cli
