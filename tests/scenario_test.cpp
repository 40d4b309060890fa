// Tests for the declarative scenario harness: suite parsing (schema shape,
// axis validation, typed error codes), the runner's golden-digest and
// threshold enforcement, and the BENCH_<suite>.json artifact schema
// round-tripped through the repo's own JSON reader.
#include "scenario/scenario.hpp"

#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "common/json.hpp"
#include "common/strings.hpp"
#include "flow/cache.hpp"
#include "scenario/runner.hpp"

namespace zolcsim::scenario {
namespace {

/// A minimal valid suite over a fast two-machine dotprod grid.
constexpr const char* kSmallSuite = R"({
  "suite": "small",
  "version": 1,
  "description": "two-machine dotprod",
  "sweep": {
    "kernels": ["dotprod"],
    "machines": ["XRdefault", "ZOLClite"]
  }
})";

TEST(ParseSuite, AcceptsFullSchema) {
  const auto suite = parse_suite(R"({
    "suite": "full-grid_1",
    "version": 1,
    "description": "everything",
    "sweep": {
      "kernels": ["dotprod", "matmul"],
      "machines": ["XRdefault", "ZOLCfull"],
      "configs": ["ID-resolve/gate/nofwd"],
      "geometries": ["16t-4l-0x-0e", "32t-8l-4x-4e-p14"],
      "baseline": "XRdefault",
      "max_cycles": 1000000,
      "env": {"scale": 3, "seed": 77}
    },
    "expect": {
      "csv_fnv1a64": "00ff00ff00ff00ff",
      "thresholds": [
        {"kernel": "dotprod", "machine": "ZOLCfull", "max_cycles": 5000},
        {"kernel": "matmul", "machine": "XRdefault",
         "geometry": "16t-4l-0x-0e", "min_mips": 0.5}
      ]
    }
  })");
  ASSERT_TRUE(suite.ok()) << suite.error().to_string();
  const Suite& s = suite.value();
  EXPECT_EQ(s.name, "full-grid_1");
  EXPECT_EQ(s.description, "everything");
  EXPECT_EQ(s.sweep.kernels.size(), 2u);
  EXPECT_EQ(s.sweep.machines.size(), 2u);
  ASSERT_EQ(s.sweep.configs.size(), 1u);
  EXPECT_FALSE(s.sweep.configs[0].forwarding);
  ASSERT_EQ(s.sweep.geometries.size(), 2u);
  EXPECT_EQ(s.sweep.geometries[1].pc_ofs_bits, 14u);
  EXPECT_EQ(s.sweep.max_cycles, 1000000u);
  EXPECT_EQ(s.sweep.env.scale, 3u);
  EXPECT_EQ(s.sweep.env.seed, 77u);
  EXPECT_EQ(s.expect_csv_fnv1a64, parse_hex64("00ff00ff00ff00ff"));
  ASSERT_EQ(s.thresholds.size(), 2u);
  EXPECT_EQ(s.thresholds[0].max_cycles, 5000u);
  EXPECT_DOUBLE_EQ(s.thresholds[1].min_mips, 0.5);
}

TEST(ParseSuite, MalformedJsonIsKParse) {
  const auto suite = parse_suite("{\"suite\": ", "broken.json");
  ASSERT_FALSE(suite.ok());
  EXPECT_EQ(suite.error().code, ErrorCode::kParse);
  EXPECT_NE(suite.error().to_string().find("broken.json"), std::string::npos);
}

TEST(ParseSuite, UnknownMembersAreRejected) {
  const auto top = parse_suite(
      R"({"suite": "s", "version": 1, "sweep": {}, "bogus": 1})");
  ASSERT_FALSE(top.ok());
  EXPECT_EQ(top.error().code, ErrorCode::kParse);

  const auto nested = parse_suite(
      R"({"suite": "s", "version": 1, "sweep": {"kernel": ["dotprod"]}})");
  ASSERT_FALSE(nested.ok());  // singular "kernel" is a typo for "kernels"
  EXPECT_EQ(nested.error().code, ErrorCode::kParse);

  // The retired cold-start run-path selector is unknown too, not ignored
  // (its name is split so the tree keeps no live use of it).
  const auto retired = parse_suite(
      R"({"suite": "s", "version": 1, "sweep": {"warm_)"
      R"(start": "both"}})");
  ASSERT_FALSE(retired.ok());
  EXPECT_EQ(retired.error().code, ErrorCode::kParse);
}

TEST(ParseSuite, UnknownKernelIsTyped) {
  const auto suite = parse_suite(
      R"({"suite": "s", "version": 1,
          "sweep": {"kernels": ["no_such_kernel"]}})");
  ASSERT_FALSE(suite.ok());
  EXPECT_EQ(suite.error().code, ErrorCode::kUnknownKernel);
}

TEST(ParseSuite, BadAxisValuesAreKBadConfig) {
  for (const char* text :
       {R"({"suite": "s", "version": 1,
            "sweep": {"machines": ["PDP11"]}})",
        R"({"suite": "s", "version": 1,
            "sweep": {"geometries": ["32 tasks"]}})",
        R"({"suite": "s", "version": 1,
            "sweep": {"configs": ["WB-resolve/rollback"]}})",
        R"({"suite": "s", "version": 2, "sweep": {}})",
        R"({"suite": "Bad Name", "version": 1, "sweep": {}})"}) {
    const auto suite = parse_suite(text);
    ASSERT_FALSE(suite.ok()) << text;
    EXPECT_EQ(suite.error().code, ErrorCode::kBadConfig) << text;
  }
}

TEST(ParseSuite, ThresholdMustCheckSomething) {
  const auto suite = parse_suite(
      R"({"suite": "s", "version": 1, "sweep": {},
          "expect": {"thresholds": [
            {"kernel": "dotprod", "machine": "ZOLClite"}]}})");
  ASSERT_FALSE(suite.ok());
  EXPECT_EQ(suite.error().code, ErrorCode::kBadConfig);
}

TEST(ParseSuite, BadDigestIsKBadConfig) {
  const auto suite = parse_suite(
      R"({"suite": "s", "version": 1, "sweep": {},
          "expect": {"csv_fnv1a64": "123"}})");
  ASSERT_FALSE(suite.ok());
  EXPECT_EQ(suite.error().code, ErrorCode::kBadConfig);
}

TEST(RunSuite, GoldenDigestMismatchIsKVerifyMismatch) {
  auto suite = parse_suite(kSmallSuite);
  ASSERT_TRUE(suite.ok());
  suite.value().expect_csv_fnv1a64 = 0xDEADBEEFDEADBEEFull;
  flow::CompileCache cache;
  const auto outcome = run_suite(suite.value(), cache);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.error().code, ErrorCode::kVerifyMismatch);
}

TEST(RunSuite, EnvBeyondTheEncodingIsKBadConfig) {
  // fft's offsets outgrow 16-bit immediates at scale 16: the compile stage
  // rejects the cell before any run loads the program.
  const auto suite = parse_suite(
      R"({"suite": "s", "version": 1,
          "sweep": {"kernels": ["fft"], "env": {"scale": 16}}})");
  ASSERT_TRUE(suite.ok()) << suite.error().to_string();
  flow::CompileCache cache;
  const auto outcome = run_suite(suite.value(), cache);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.error().code, ErrorCode::kBadConfig);
}

TEST(RunSuite, ThresholdViolationIsKThreshold) {
  auto suite = parse_suite(kSmallSuite);
  ASSERT_TRUE(suite.ok());
  Threshold t;
  t.kernel = "dotprod";
  t.machine = "ZOLClite";
  t.max_cycles = 1;  // unsatisfiable
  suite.value().thresholds.push_back(t);
  flow::CompileCache cache;
  const auto outcome = run_suite(suite.value(), cache);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.error().code, ErrorCode::kThreshold);
}

TEST(RunSuite, ThresholdOutsideGridIsKBadConfig) {
  auto suite = parse_suite(kSmallSuite);
  ASSERT_TRUE(suite.ok());
  Threshold t;
  t.kernel = "matmul";  // not part of the small sweep
  t.machine = "ZOLClite";
  t.max_cycles = 1000000;
  suite.value().thresholds.push_back(t);
  flow::CompileCache cache;
  const auto outcome = run_suite(suite.value(), cache);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.error().code, ErrorCode::kBadConfig);
}

TEST(RunSuite, SelfGoldenedRoundTripAndBenchArtifact) {
  auto suite = parse_suite(kSmallSuite);
  ASSERT_TRUE(suite.ok());
  flow::CompileCache cache;

  // First run discovers the digest; a second run pinned to it must verify.
  const auto first = run_suite(suite.value(), cache);
  ASSERT_TRUE(first.ok()) << first.error().to_string();
  EXPECT_FALSE(first.value().golden_checked);
  suite.value().expect_csv_fnv1a64 = first.value().csv_fnv1a64;
  const auto second = run_suite(suite.value(), cache);
  ASSERT_TRUE(second.ok()) << second.error().to_string();
  EXPECT_TRUE(second.value().golden_checked);
  EXPECT_EQ(second.value().csv, first.value().csv);
  // The second run hits the warm shared cache: zero fresh compiles.
  EXPECT_EQ(second.value().report.compile_cache_misses, 0u);
  EXPECT_EQ(second.value().report.compile_cache_hits, 2u);

  // The BENCH artifact parses with the repo's own JSON reader and carries
  // the versioned schema.
  EXPECT_EQ(bench_artifact_name(second.value().suite), "BENCH_small.json");
  const auto artifact = json::parse(bench_artifact_json(second.value()));
  ASSERT_TRUE(artifact.ok()) << artifact.error().to_string();
  const json::Value& root = artifact.value();
  EXPECT_EQ(root.find("schema")->as_string(), kBenchSchema);
  EXPECT_EQ(root.find("suite")->as_string(), "small");
  EXPECT_FALSE(root.find("git_sha")->as_string().empty());
  EXPECT_FALSE(root.find("toolchain")->as_string().empty());
  EXPECT_EQ(root.find("golden")->as_string(), "match");
  EXPECT_EQ(parse_hex64(root.find("csv_fnv1a64")->as_string()),
            second.value().csv_fnv1a64);
  ASSERT_NE(root.find("compile_cache"), nullptr);
  ASSERT_NE(root.find("points"), nullptr);
  const auto& points = root.find("points")->items();
  ASSERT_EQ(points.size(), second.value().report.cells.size());
  for (const json::Value& point : points) {
    EXPECT_EQ(point.find("kernel")->as_string(), "dotprod");
    EXPECT_TRUE(point.find("cycles")->as_uint().has_value());
    EXPECT_TRUE(point.find("instructions")->as_uint().has_value());
    EXPECT_TRUE(point.find("mips")->is_number());
  }
}

TEST(RunSuite, ArtifactCarriesPrepareAndCompileCacheCounters) {
  auto suite = parse_suite(kSmallSuite);
  ASSERT_TRUE(suite.ok());
  flow::CompileCache cache;
  const auto outcome = run_suite(suite.value(), cache);
  ASSERT_TRUE(outcome.ok()) << outcome.error().to_string();

  const auto artifact = json::parse(bench_artifact_json(outcome.value()));
  ASSERT_TRUE(artifact.ok());
  const json::Value* prepares = artifact.value().find("prepares");
  ASSERT_NE(prepares, nullptr);
  EXPECT_EQ(prepares->find("image_resets")->as_uint(), 0u);
  const json::Value& cc = *artifact.value().find("compile_cache");
  EXPECT_EQ(cc.find("store_hits"), nullptr);
  EXPECT_EQ(cc.find("compiles")->as_uint(), cc.find("misses")->as_uint());
}

TEST(RunSuite, TimingRepsCountImageResets) {
  auto suite = parse_suite(kSmallSuite);
  ASSERT_TRUE(suite.ok());
  suite.value().sweep.timing_reps = 3;
  flow::CompileCache cache;
  const auto outcome = run_suite(suite.value(), cache);
  ASSERT_TRUE(outcome.ok()) << outcome.error().to_string();
  // 2 cells x 2 extra reps, every one a copy-on-write reset.
  EXPECT_EQ(outcome.value().report.image_resets, 4u);
}

TEST(SuiteFiles, LoadErrorsAreKIo) {
  const auto missing = load_suite_file("/nonexistent/suite.json");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.error().code, ErrorCode::kIo);

  const auto nodir = list_suite_files("/nonexistent/dir");
  ASSERT_FALSE(nodir.ok());
  EXPECT_EQ(nodir.error().code, ErrorCode::kIo);
}

}  // namespace
}  // namespace zolcsim::scenario
