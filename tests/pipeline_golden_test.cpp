// Golden pipeline statistics: every registered kernel x machine x pipeline
// configuration, run through flow::run at the default KernelEnv, must
// reproduce all fourteen PipelineStats counters recorded in
// tests/golden/pipeline_stats.csv. The scenario suites pin cycles and
// reductions of the configurations they sweep; this table also pins the
// stall, flush and ZOLC event breakdown, and the no-forwarding configs no
// suite covers, so a pipeline rewrite that keeps totals but shifts a stall
// from one cause to another still fails.
//
// On a mismatch the test writes the table it produced to
// pipeline_stats.actual.csv in its working directory; after an intended
// change to the cycle model, review that file's diff and copy it over the
// golden one.
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "flow/compiled_unit.hpp"
#include "flow/run.hpp"
#include "harness/sweep.hpp"
#include "kernels/kernels.hpp"
#include "sim_test_util.hpp"

namespace zolcsim {
namespace {

constexpr const char* kHeader =
    "kernel,machine,config,cycles,instructions,loads,stores,taken_control,"
    "control_flush_slots,load_use_stalls,interlock_stalls,raw_stalls,"
    "gate_stalls,zolc_fetch_events,zolc_rollbacks,zolc_resolution_events,"
    "zolc_init_instructions";

std::string stats_fields(const cpu::PipelineStats& s) {
  std::ostringstream os;
  for (const std::uint64_t v :
       {s.cycles, s.instructions, s.loads, s.stores, s.taken_control,
        s.control_flush_slots, s.load_use_stalls, s.interlock_stalls,
        s.raw_stalls, s.gate_stalls, s.zolc_fetch_events, s.zolc_rollbacks,
        s.zolc_resolution_events, s.zolc_init_instructions}) {
    os << ',' << v;
  }
  return os.str();
}

/// Reads `path` into a map from "kernel,machine,config" to the full row.
std::map<std::string, std::string> read_golden(const std::string& path,
                                               std::string& header) {
  std::map<std::string, std::string> rows;
  std::ifstream in(path);
  std::getline(in, header);
  std::string line;
  while (std::getline(in, line)) {
    std::size_t key_end = 0;
    for (int field = 0; field < 3; ++field) {
      key_end = line.find(',', key_end) + 1;
    }
    rows.emplace(line.substr(0, key_end - 1), line);
  }
  return rows;
}

TEST(PipelineGolden, EveryCounterMatchesTheRecordedTable) {
  std::string golden_header;
  const auto golden = read_golden(
      std::string(ZOLCSIM_GOLDEN_DIR) + "/pipeline_stats.csv", golden_header);
  EXPECT_EQ(golden_header, kHeader);

  std::vector<const kernels::Kernel*> kernels;
  for (const auto& k : kernels::kernel_registry()) kernels.push_back(k.get());
  for (const auto& k : kernels::extended_kernel_registry()) {
    kernels.push_back(k.get());
  }
  const auto configs = test::all_pipeline_configs();

  std::string actual = std::string(kHeader) + '\n';
  for (const kernels::Kernel* kernel : kernels) {
    for (const codegen::MachineKind machine : codegen::kAllMachines) {
      flow::CompileSpec spec;
      spec.kernel = std::string(kernel->name());
      spec.machine = machine;
      const auto unit = flow::CompiledUnit::compile(spec);
      ASSERT_TRUE(unit.ok()) << unit.error().to_string();
      for (const cpu::PipelineConfig& config : configs) {
        flow::RunPlan plan;
        plan.config = config;
        const auto result = flow::run(unit.value(), plan);
        ASSERT_TRUE(result.ok()) << result.error().to_string();
        const std::string key = spec.kernel + ',' +
                                std::string(codegen::machine_name(machine)) +
                                ',' + harness::config_name(config);
        const std::string row = key + stats_fields(result.value().stats);
        actual += row + '\n';
        const auto it = golden.find(key);
        if (it == golden.end()) {
          ADD_FAILURE() << "no golden row for " << key;
        } else {
          EXPECT_EQ(row, it->second);
        }
      }
    }
  }
  EXPECT_EQ(golden.size(),
            kernels.size() * std::size(codegen::kAllMachines) * configs.size());
  if (HasFailure()) {
    std::ofstream("pipeline_stats.actual.csv") << actual;
  }
}

}  // namespace
}  // namespace zolcsim
