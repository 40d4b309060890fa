// Staged-toolchain behaviour: compile-once artifacts, workload prep/verify,
// the compile cache, and the structured error codes each stage reports.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "common/strings.hpp"
#include "flow/cache.hpp"
#include "flow/compiled_unit.hpp"
#include "flow/run.hpp"
#include "flow/workload.hpp"
#include "isa/build.hpp"
#include "isa/encoding.hpp"
#include "kernels/kernels.hpp"

namespace zolcsim::flow {
namespace {

using codegen::MachineKind;
namespace b = isa::build;

/// Ad-hoc kernel for error-path tests: caller-supplied KIR and verify.
class TestKernel : public kernels::Kernel {
 public:
  TestKernel(std::vector<codegen::KNode> kir,
             std::function<Result<void>(const kernels::KernelEnv&,
                                        const mem::Memory&)>
                 verify = nullptr)
      : kir_(std::move(kir)), verify_(std::move(verify)) {}

  [[nodiscard]] std::string_view name() const override { return "test"; }
  [[nodiscard]] std::string_view description() const override {
    return "flow_test ad-hoc kernel";
  }
  [[nodiscard]] std::vector<codegen::KNode> build(
      const kernels::KernelEnv&) const override {
    return kir_;
  }
  void setup(const kernels::KernelEnv&, mem::Memory&) const override {
    if (setup_count_ != nullptr) ++*setup_count_;
  }
  [[nodiscard]] Result<void> verify(const kernels::KernelEnv& env,
                                    const mem::Memory& memory) const override {
    if (verify_) return verify_(env, memory);
    return {};
  }

  /// Counts every setup() call into `*count` (for prepare-count tests).
  void count_setups(int* count) { setup_count_ = count; }

 private:
  std::vector<codegen::KNode> kir_;
  std::function<Result<void>(const kernels::KernelEnv&, const mem::Memory&)>
      verify_;
  int* setup_count_ = nullptr;
};

CompileSpec spec_for(std::string kernel, MachineKind machine,
                     zolc::ZolcGeometry geometry = {}) {
  CompileSpec spec;
  spec.kernel = std::move(kernel);
  spec.machine = machine;
  spec.geometry = geometry;
  return spec;
}

// ---------------- compile stage ----------------

TEST(CompiledUnit, CarriesAllCompileStageArtifacts) {
  const auto unit =
      CompiledUnit::compile(spec_for("dotprod", MachineKind::kZolcLite));
  ASSERT_TRUE(unit.ok()) << unit.error().to_string();
  const CompiledUnit& u = unit.value();

  EXPECT_EQ(u.spec().kernel, "dotprod");
  EXPECT_EQ(u.machine(), MachineKind::kZolcLite);
  EXPECT_GT(u.program().size_words(), 0u);
  EXPECT_EQ(u.program().machine, MachineKind::kZolcLite);
  // The decoded image holds one record per word of the unit's own code.
  EXPECT_EQ(u.decoded().base, u.program().base);
  ASSERT_EQ(u.decoded().ops.size(), u.program().code.size());
  for (std::size_t i = 0; i < u.program().code.size(); ++i) {
    EXPECT_EQ(u.decoded().ops[i].instr, u.program().code[i]);
  }
  // Disassembly covers every word.
  const std::string disasm = u.disassembly();
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(disasm.begin(), disasm.end(), '\n')),
            u.program().size_words());
}

TEST(CompiledUnit, ScanMetadataFindsSoftwareCountedLoops) {
  // The software lowering keeps the counted-loop back-edge idiom zolcscan
  // recovers; the ZOLC lowering erases it (loops are hardware-managed).
  const auto sw =
      CompiledUnit::compile(spec_for("dotprod", MachineKind::kXrDefault));
  ASSERT_TRUE(sw.ok());
  EXPECT_FALSE(sw.value().scan().candidates.empty());

  const auto hw =
      CompiledUnit::compile(spec_for("dotprod", MachineKind::kZolcLite));
  ASSERT_TRUE(hw.ok());
  EXPECT_TRUE(hw.value().scan().candidates.empty());
}

TEST(CompiledUnit, CompileArtifactBytesArePinned) {
  // One digest over `zolcsim compile --format=json` of every registered
  // kernel on every machine (default geometry and env): program words,
  // table image and zolcscan report. An intended codegen or scan change
  // updates kDigest; anything else that moves it is a regression.
  constexpr std::string_view kDigest = "3e8d9d424313582a";
  std::string folded;
  std::size_t units = 0;
  std::size_t scanned = 0;  // units with any scan candidate or rejection
  const auto fold = [&](const kernels::Kernel& kernel) {
    for (const MachineKind machine : codegen::kAllMachines) {
      const auto unit =
          CompiledUnit::compile(spec_for(std::string(kernel.name()), machine));
      ASSERT_TRUE(unit.ok()) << unit.error().to_string();
      folded += hex64(fnv1a64(unit.value().to_json()));
      folded += '\n';
      ++units;
      const cfg::ScanReport scan = unit.value().scan();
      if (!scan.candidates.empty() || !scan.rejected.empty()) ++scanned;
    }
  };
  for (const auto& kernel : kernels::kernel_registry()) fold(*kernel);
  for (const auto& kernel : kernels::extended_kernel_registry()) {
    fold(*kernel);
  }
  EXPECT_EQ(units, 75u);
  EXPECT_EQ(scanned, 46u);
  EXPECT_EQ(hex64(fnv1a64(folded)), kDigest);
}

TEST(CompiledUnit, UnknownKernelNameReportsCode) {
  const auto unit =
      CompiledUnit::compile(spec_for("no_such_kernel", MachineKind::kUZolc));
  ASSERT_FALSE(unit.ok());
  EXPECT_EQ(unit.error().code, ErrorCode::kUnknownKernel);
}

TEST(CompiledUnit, InvalidGeometryReportsCode) {
  const auto unit = CompiledUnit::compile(
      spec_for("dotprod", MachineKind::kZolcLite, {32, 64, 4, 4}));
  ASSERT_FALSE(unit.ok());
  EXPECT_EQ(unit.error().code, ErrorCode::kBadConfig);
}

TEST(CompiledUnit, EnvBeyondTheEncodingReportsCode) {
  // fft at scale 16 needs memory offsets wider than 16 bits: the compile,
  // not the first run, must reject it.
  CompileSpec spec = spec_for("fft", MachineKind::kXrDefault);
  spec.env.scale = 16;
  const auto unit = CompiledUnit::compile(spec);
  ASSERT_FALSE(unit.ok());
  EXPECT_EQ(unit.error().code, ErrorCode::kBadConfig);
  ASSERT_FALSE(unit.error().context.empty());
  EXPECT_EQ(unit.error().context.front(), "fft (XRdefault)");
}

TEST(CompiledUnit, ReservedRegisterUseReportsCode) {
  // r24-r27 are the lowering's pool registers; kernels must not touch them.
  codegen::KernelBuilder kb;
  kb.for_count(1, 0, 4, 1, [&] { kb.op(b::addi(24, 24, 1)); });
  const TestKernel kernel(kb.take());
  const auto unit = CompiledUnit::compile(
      kernel, spec_for("test", MachineKind::kXrDefault));
  ASSERT_FALSE(unit.ok());
  EXPECT_EQ(unit.error().code, ErrorCode::kInvalidKernel);
}

TEST(CompiledUnit, CapacityOverrunWithoutFallbackReportsCode) {
  // A ~300-word body cannot fit an 8-bit PC-offset window, and there is no
  // software fallback for table offset widths -- the compile must fail with
  // kCapacity (not a silently aliased program).
  codegen::KernelBuilder kb;
  kb.for_count(1, 0, 4, 1, [&] {
    for (int i = 0; i < 300; ++i) kb.op(b::nop());
  });
  const TestKernel kernel(kb.take());
  const auto unit = CompiledUnit::compile(
      kernel, spec_for("test", MachineKind::kZolcLite, {32, 8, 0, 0, 8}));
  ASSERT_FALSE(unit.ok());
  EXPECT_EQ(unit.error().code, ErrorCode::kCapacity);
  EXPECT_NE(unit.error().to_string().find("PC-offset window"),
            std::string::npos);
}

// ---------------- runtime stage ----------------

TEST(FlowRun, OneUnitRunsManyConfigsMatchingFreshCompiles) {
  const auto unit =
      CompiledUnit::compile(spec_for("fir", MachineKind::kZolcLite));
  ASSERT_TRUE(unit.ok());

  const cpu::PipelineConfig configs[] = {
      {cpu::BranchResolveStage::kExecute, cpu::SpeculationPolicy::kRollback,
       true},
      {cpu::BranchResolveStage::kDecode, cpu::SpeculationPolicy::kGate, true},
      {cpu::BranchResolveStage::kExecute, cpu::SpeculationPolicy::kRollback,
       false}};
  for (const cpu::PipelineConfig& config : configs) {
    RunPlan plan;
    plan.config = config;
    const auto staged = run(unit.value(), plan);
    ASSERT_TRUE(staged.ok()) << staged.error().to_string();
    const auto fresh_unit =
        CompiledUnit::compile(spec_for("fir", MachineKind::kZolcLite));
    ASSERT_TRUE(fresh_unit.ok());
    const auto fresh = run(fresh_unit.value(), plan);
    ASSERT_TRUE(fresh.ok());
    EXPECT_EQ(staged.value().stats.cycles, fresh.value().stats.cycles);
    EXPECT_EQ(staged.value().stats.instructions,
              fresh.value().stats.instructions);
    EXPECT_EQ(staged.value().zolc_stats.continue_events,
              fresh.value().zolc_stats.continue_events);
  }
}

TEST(FlowRun, CycleBudgetReportsSimulationCode) {
  const auto unit =
      CompiledUnit::compile(spec_for("me_fsbm", MachineKind::kXrDefault));
  ASSERT_TRUE(unit.ok());
  RunPlan plan;
  plan.max_cycles = 100;
  const auto result = run(unit.value(), plan);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, ErrorCode::kSimulation);
}

TEST(FlowRun, VerificationMismatchReportsCode) {
  // The program stores 1; the verify closure demands 2.
  codegen::KernelBuilder kb;
  kb.li(8, 0x0012'0000);
  kb.for_count(1, 0, 1, 1, [&] {
    kb.op(b::addi(2, 0, 1));
    kb.op(b::sw(2, 0, 8));
  });
  const TestKernel kernel(
      kb.take(), [](const kernels::KernelEnv& env, const mem::Memory& memory) {
        return kernels::detail::check_words(memory, env.out_base, {2}, "out");
      });
  const auto unit = CompiledUnit::compile(
      kernel, spec_for("test", MachineKind::kXrDefault));
  ASSERT_TRUE(unit.ok()) << unit.error().to_string();
  const auto result = run(unit.value());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, ErrorCode::kVerifyMismatch);
}

TEST(Workload, PrepareLoadsProgramImageAndIsConsumedPerRun) {
  const auto unit =
      CompiledUnit::compile(spec_for("dotprod", MachineKind::kXrDefault));
  ASSERT_TRUE(unit.ok());
  Workload workload = Workload::prepare(unit.value());
  // The first program word is encoded at env.code_base.
  EXPECT_EQ(workload.memory().read32(unit.value().env().code_base),
            isa::encode(unit.value().program().code.front()));
  // Two independent workloads from one unit give identical runs.
  Workload second = Workload::prepare(unit.value());
  const auto a = run(unit.value(), workload, {});
  const auto s = run(unit.value(), second, {});
  ASSERT_TRUE(a.ok() && s.ok());
  EXPECT_EQ(a.value().stats.cycles, s.value().stats.cycles);
}

// ---------------- warm-start run path ----------------

/// A runnable TestKernel: stores 1 to out_base, verify accepts it.
TestKernel make_store_one_kernel() {
  codegen::KernelBuilder kb;
  kb.li(8, 0x0012'0000);
  kb.for_count(1, 0, 1, 1, [&] {
    kb.op(b::addi(2, 0, 1));
    kb.op(b::sw(2, 0, 8));
  });
  return TestKernel(
      kb.take(), [](const kernels::KernelEnv& env, const mem::Memory& memory) {
        return kernels::detail::check_words(memory, env.out_base, {1}, "out");
      });
}

TEST(CompiledUnit, PreparedImageIsBuiltOnceAndShared) {
  TestKernel kernel = make_store_one_kernel();
  int setups = 0;
  kernel.count_setups(&setups);
  const auto unit = CompiledUnit::compile(
      kernel, spec_for("test", MachineKind::kXrDefault));
  ASSERT_TRUE(unit.ok()) << unit.error().to_string();

  const auto image = unit.value().prepared_image();
  ASSERT_NE(image, nullptr);
  EXPECT_EQ(setups, 1);
  EXPECT_EQ(unit.value().prepared_image().get(), image.get());
  // Copies of the unit share the cached image (ImageSlot is shared).
  const CompiledUnit copy = unit.value();
  EXPECT_EQ(copy.prepared_image().get(), image.get());
  EXPECT_EQ(setups, 1);
  // The image holds the loaded program.
  EXPECT_EQ(image->fetch32(unit.value().env().code_base),
            isa::encode(unit.value().program().code.front()));
}

TEST(FlowRun, OnePrepareServesEveryRunAndRep) {
  TestKernel kernel = make_store_one_kernel();
  int setups = 0;
  kernel.count_setups(&setups);
  const auto unit = CompiledUnit::compile(
      kernel, spec_for("test", MachineKind::kXrDefault));
  ASSERT_TRUE(unit.ok()) << unit.error().to_string();

  // Regression pin for the historical double-prepare: a single-rep run
  // must not build one image just to throw it away.
  const auto once = run(unit.value(), RunPlan{});
  ASSERT_TRUE(once.ok()) << once.error().to_string();
  EXPECT_EQ(setups, 1);
  EXPECT_EQ(once.value().image_resets, 0u);

  // Later runs reuse the unit's cached image, and every extra timing rep
  // resets it; the reps are architecturally invisible.
  RunPlan plan;
  plan.timing_reps = 3;
  const auto reps = run(unit.value(), plan);
  ASSERT_TRUE(reps.ok()) << reps.error().to_string();
  EXPECT_EQ(setups, 1);
  EXPECT_EQ(reps.value().image_resets, 2u);
  EXPECT_EQ(reps.value().stats, once.value().stats);
}

TEST(FlowRun, UnitCopiesShareOneDecodedImage) {
  const auto unit =
      CompiledUnit::compile(spec_for("fir", MachineKind::kZolcLite));
  ASSERT_TRUE(unit.ok()) << unit.error().to_string();
  const cpu::DecodedImage& table = unit.value().decoded();
  const cpu::DecodedOp* const records = table.ops.data();

  // A copy exposes the same table, not a rebuilt one.
  const CompiledUnit copy = unit.value();
  EXPECT_EQ(&copy.decoded(), &table);

  // Runs on either engine read the unit's table in place: it is neither
  // rebuilt nor reallocated.
  for (const SimEngine engine : {SimEngine::kPipeline, SimEngine::kIss}) {
    RunPlan plan;
    plan.mode.engine = engine;
    const auto first = run(copy, plan);
    const auto second = run(copy, plan);
    ASSERT_TRUE(first.ok()) << first.error().to_string();
    ASSERT_TRUE(second.ok()) << second.error().to_string();
    EXPECT_EQ(first.value().stats, second.value().stats);
    EXPECT_EQ(&copy.decoded(), &table);
    EXPECT_EQ(copy.decoded().ops.data(), records);
    EXPECT_EQ(copy.decoded().ops.size(), unit.value().program().code.size());
  }
}

TEST(Workload, WarmViewMatchesColdAcrossRegistryKernels) {
  // Every registered kernel x machine x execution mode: a run on a cold
  // image (Workload::prepare, the reference) and a run on a copy-on-write
  // view of the unit's prepared image must agree on every statistic and on
  // the final memory image, and so must a second run after reset() (the
  // timing-rep path).
  const ExecMode modes[] = {{SimEngine::kPipeline, false},
                            {SimEngine::kIss, false},
                            {SimEngine::kIss, true}};
  std::vector<const kernels::Kernel*> all;
  for (const auto& k : kernels::kernel_registry()) all.push_back(k.get());
  for (const auto& k : kernels::extended_kernel_registry()) {
    all.push_back(k.get());
  }
  for (const kernels::Kernel* kernel : all) {
    for (const MachineKind machine : codegen::kAllMachines) {
      const auto unit = CompiledUnit::compile(
          spec_for(std::string(kernel->name()), machine));
      ASSERT_TRUE(unit.ok()) << unit.error().to_string();
      for (const ExecMode& mode : modes) {
        SCOPED_TRACE(std::string(kernel->name()) + " on " +
                     std::string(codegen::machine_name(machine)) + " " +
                     std::string(mode_name(mode)));
        Workload cold = Workload::prepare(unit.value());
        Workload warm = Workload::prepare_warm(unit.value());
        EXPECT_FALSE(cold.memory().has_baseline());
        EXPECT_TRUE(warm.memory().has_baseline());
        EXPECT_TRUE(cold.memory() == warm.memory());

        RunPlan plan;
        plan.mode = mode;
        for (int pass = 0; pass < 2; ++pass) {
          const auto a = run(unit.value(), cold, plan);
          const auto b = run(unit.value(), warm, plan);
          ASSERT_TRUE(a.ok()) << a.error().to_string();
          ASSERT_TRUE(b.ok()) << b.error().to_string();
          EXPECT_EQ(a.value().stats, b.value().stats);
          EXPECT_EQ(a.value().zolc_stats, b.value().zolc_stats);
          EXPECT_EQ(a.value().fastpath, b.value().fastpath);
          EXPECT_TRUE(cold.memory() == warm.memory());  // same final image

          // reset() restores both to the pristine image.
          cold.reset();
          warm.reset();
          EXPECT_TRUE(cold.memory() == warm.memory());
        }
      }
    }
  }
}

// ---------------- compile cache ----------------

TEST(CompileCache, HitsAfterFirstCompileAndKeysOnEveryAxis) {
  CompileCache cache;
  const CompileSpec spec = spec_for("dotprod", MachineKind::kZolcLite);
  const auto first = cache.get_or_compile(spec);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 0u);

  const auto again = cache.get_or_compile(spec);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(first.value().get(), again.value().get());  // shared, not copied

  // Any axis change is a different unit: machine, geometry, env.
  auto other_machine =
      cache.get_or_compile(spec_for("dotprod", MachineKind::kZolcFull));
  auto other_geometry = cache.get_or_compile(
      spec_for("dotprod", MachineKind::kZolcLite, {32, 12, 0, 0}));
  CompileSpec other_env = spec;
  other_env.env.scale = 2;
  auto scaled = cache.get_or_compile(other_env);
  ASSERT_TRUE(other_machine.ok() && other_geometry.ok() && scaled.ok());
  EXPECT_EQ(cache.stats().misses, 4u);
  EXPECT_EQ(cache.size(), 4u);
}

TEST(CompileCache, FailedCompilesAreNotCached) {
  CompileCache cache;
  const CompileSpec bad = spec_for("no_such_kernel", MachineKind::kUZolc);
  EXPECT_FALSE(cache.get_or_compile(bad).ok());
  EXPECT_FALSE(cache.get_or_compile(bad).ok());
  EXPECT_EQ(cache.stats().misses, 0u);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.size(), 0u);
}

// ---------------- compile cache: the resident-byte bound ----------------

/// `count` distinct dotprod units, one env seed each, whose keys land in
/// cache shard `shard`.
std::vector<CompileSpec> same_shard_specs(std::size_t shard,
                                          std::size_t count) {
  std::vector<CompileSpec> specs;
  for (std::uint32_t seed = 1; specs.size() < count; ++seed) {
    CompileSpec spec = spec_for("dotprod", MachineKind::kZolcFull);
    spec.env.seed = seed;
    if (CompileCache::shard_index(spec.key()) == shard) specs.push_back(spec);
  }
  return specs;
}

/// Resolves `spec` and builds its prepared image, as a run does, then
/// looks it up again so the cache charges the image.
std::shared_ptr<const CompiledUnit> use(CompileCache& cache,
                                        const CompileSpec& spec) {
  const auto unit = cache.get_or_compile(spec);
  EXPECT_TRUE(unit.ok()) << unit.error().to_string();
  (void)unit.value()->prepared_image();
  (void)cache.get_or_compile(spec);
  return unit.value();
}

/// Uses specs[next], specs[next + 1], ... until the cache evicts; returns
/// the index of the first spec not used.
std::size_t use_until_eviction(CompileCache& cache,
                               const std::vector<CompileSpec>& specs,
                               std::size_t next) {
  const std::size_t evictions = cache.stats().evictions;
  while (cache.stats().evictions == evictions) {
    if (next == specs.size()) {
      ADD_FAILURE() << "no eviction after " << next << " units";
      break;
    }
    (void)use(cache, specs[next++]);
  }
  return next;
}

/// True when `spec` is resident: the lookup neither compiles nor loads.
bool resident(CompileCache& cache, const CompileSpec& spec) {
  const std::size_t misses = cache.stats().misses;
  EXPECT_TRUE(cache.get_or_compile(spec).ok());
  return cache.stats().misses == misses;
}

TEST(CompileCache, ChargesThePreparedImageOnceItIsBuilt) {
  CompileCache cache;
  const std::vector<CompileSpec> specs = same_shard_specs(3, 2);
  const auto unit = cache.get_or_compile(specs[0]);
  ASSERT_TRUE(unit.ok()) << unit.error().to_string();
  const CompiledUnit& u = *unit.value();
  const std::size_t bare =
      u.decoded().ops.size() * sizeof(cpu::DecodedOp) +
      u.program().code.size() * sizeof(isa::Instruction);
  EXPECT_EQ(u.resident_bytes(), bare);
  EXPECT_EQ(cache.stats().resident_bytes, bare);

  const auto image = u.prepared_image();
  ASSERT_GT(image->resident_pages(), 0u);
  EXPECT_EQ(u.resident_bytes(),
            bare + image->resident_pages() * mem::Memory::kPageSize);
  // Not charged until the cache looks at the unit again: a hit re-charges
  // it, and so does the next lookup in its shard while it is the shard's
  // most recently used unit.
  EXPECT_EQ(cache.stats().resident_bytes, bare);
  const auto other = cache.get_or_compile(specs[1]);
  ASSERT_TRUE(other.ok()) << other.error().to_string();
  EXPECT_EQ(cache.stats().resident_bytes,
            u.resident_bytes() + other.value()->resident_bytes());

  (void)other.value()->prepared_image();
  ASSERT_TRUE(cache.get_or_compile(specs[1]).ok());
  EXPECT_EQ(cache.stats().resident_bytes,
            u.resident_bytes() + other.value()->resident_bytes());
  EXPECT_GT(other.value()->resident_bytes(), bare);
  EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(CompileCache, EvictsTheLeastRecentlyHitUnit) {
  CompileCache cache;
  const std::vector<CompileSpec> specs = same_shard_specs(5, 256);
  (void)use(cache, specs[0]);
  (void)use(cache, specs[1]);
  ASSERT_TRUE(cache.get_or_compile(specs[0]).ok());  // specs[1] is now LRU

  const std::size_t used = use_until_eviction(cache, specs, 2);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_LE(cache.stats().resident_bytes,
            CompileCache::kMaxResidentBytes / CompileCache::kShardCount);
  EXPECT_EQ(cache.size(), used - 1);
  EXPECT_TRUE(resident(cache, specs[0]));
  EXPECT_TRUE(resident(cache, specs[used - 1]));
  EXPECT_FALSE(resident(cache, specs[1]));
}

TEST(CompileCache, AUnitHandedOutBeforeItsEvictionStaysUsable) {
  CompileCache cache;
  const std::vector<CompileSpec> specs = same_shard_specs(7, 256);
  const std::shared_ptr<const CompiledUnit> held = use(cache, specs[0]);
  const auto before = run(*held, RunPlan{});
  ASSERT_TRUE(before.ok()) << before.error().to_string();

  (void)use_until_eviction(cache, specs, 1);
  EXPECT_FALSE(resident(cache, specs[0]));
  // The cache dropped its reference, not the unit.
  const auto after = run(*held, RunPlan{});
  ASSERT_TRUE(after.ok()) << after.error().to_string();
  EXPECT_EQ(after.value().stats, before.value().stats);
}

TEST(CompileCache, AnEvictedUnitRecompilesIdentically) {
  CompileCache cache;
  const std::vector<CompileSpec> specs = same_shard_specs(9, 256);
  const std::shared_ptr<const CompiledUnit> first = use(cache, specs[0]);
  (void)use_until_eviction(cache, specs, 1);

  const std::size_t compiles = cache.stats().compiles;
  const auto again = cache.get_or_compile(specs[0]);
  ASSERT_TRUE(again.ok()) << again.error().to_string();
  EXPECT_EQ(cache.stats().compiles, compiles + 1);
  EXPECT_NE(again.value().get(), first.get());
  EXPECT_EQ(again.value()->decoded().base, first->decoded().base);
  EXPECT_EQ(again.value()->decoded().ops, first->decoded().ops);

  for (const SimEngine engine : {SimEngine::kPipeline, SimEngine::kIss}) {
    RunPlan plan;
    plan.mode.engine = engine;
    const auto was = run(*first, plan);
    const auto now = run(*again.value(), plan);
    ASSERT_TRUE(was.ok() && now.ok());
    EXPECT_EQ(now.value().stats.cycles, was.value().stats.cycles);
    EXPECT_EQ(now.value().stats, was.value().stats);
  }
}

TEST(CompileCache, ConcurrentLookupsCompileOnceWhileUnitsAreEvicted) {
  CompileCache cache;
  // Shard 0 starts full, so every unit the flood adds there evicts; shard
  // 1 fills and evicts during the race.
  const std::vector<CompileSpec> shard0 = same_shard_specs(0, 256);
  const std::vector<CompileSpec> shard1 = same_shard_specs(1, 64);
  std::size_t next = use_until_eviction(cache, shard0, 0);
  const std::size_t full = cache.size();
  constexpr std::size_t kFlood = 8;
  ASSERT_GT(full, kFlood + 1);  // the contested unit cannot age out
  const CompileSpec& contested = shard0[next++];
  const std::vector<CompileSpec> flood(shard0.begin() + next,
                                       shard0.begin() + next + kFlood);
  const CompileCache::Stats before = cache.stats();

  constexpr std::size_t kRacers = 8;
  std::vector<std::shared_ptr<const CompiledUnit>> got(kRacers);
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < kRacers; ++i) {
    threads.emplace_back([&, i] {
      while (!go.load()) std::this_thread::yield();
      got[i] = cache.get_or_compile(contested).value();
    });
  }
  threads.emplace_back([&] {
    while (!go.load()) std::this_thread::yield();
    for (const CompileSpec& spec : flood) (void)use(cache, spec);
  });
  threads.emplace_back([&] {
    while (!go.load()) std::this_thread::yield();
    for (const CompileSpec& spec : shard1) (void)use(cache, spec);
  });
  go.store(true);
  for (std::thread& t : threads) t.join();

  const CompileCache::Stats after = cache.stats();
  for (const auto& unit : got) EXPECT_EQ(unit.get(), got.front().get());
  EXPECT_EQ(after.compiles - before.compiles, 1 + kFlood + shard1.size());
  EXPECT_GE(after.evictions - before.evictions, kFlood);
  EXPECT_LE(after.resident_bytes, CompileCache::kMaxResidentBytes);
}

}  // namespace
}  // namespace zolcsim::flow
