// On-disk unit store behaviour, as the benchmark's replay uses it:
// round-trip fidelity (serialize -> reload -> co-simulate against a fresh
// compile) over every registered kernel, typed rejection of corrupt and
// stale artifacts, and the CompileCache integration that lets a second
// cache skip every compile.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "flow/cache.hpp"
#include "flow/compiled_unit.hpp"
#include "flow/run.hpp"
#include "flow/unit_store.hpp"
#include "kernels/kernels.hpp"

namespace zolcsim::flow {
namespace {

using codegen::MachineKind;
namespace fs = std::filesystem;

CompileSpec spec_for(std::string kernel,
                     MachineKind machine = MachineKind::kZolcLite) {
  CompileSpec spec;
  spec.kernel = std::move(kernel);
  spec.machine = machine;
  return spec;
}

/// A fresh store directory per test, under gtest's temp root.
std::string fresh_store_dir(const char* name) {
  const fs::path dir = fs::path(testing::TempDir()) / name;
  fs::remove_all(dir);
  return dir.string();
}

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

void spill(const fs::path& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
}

/// The store's single artifact file (tests that save exactly one unit).
fs::path only_artifact(const std::string& dir) {
  fs::path found;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    EXPECT_TRUE(found.empty()) << "more than one artifact in " << dir;
    found = entry.path();
  }
  EXPECT_FALSE(found.empty()) << "no artifact in " << dir;
  return found;
}

TEST(UnitStore, MissingArtifactIsAMissNotAnError) {
  UnitStore store(fresh_store_dir("unit_store_miss"));
  const auto loaded = store.load(spec_for("dotprod"));
  ASSERT_TRUE(loaded.ok()) << loaded.error().to_string();
  EXPECT_EQ(loaded.value(), nullptr);
  EXPECT_EQ(store.stats().misses, 1u);
  EXPECT_EQ(store.stats().hits, 0u);
}

TEST(UnitStore, RoundTripCoSimulatesEveryRegisteredKernel) {
  UnitStore store(fresh_store_dir("unit_store_roundtrip"));
  // ISS keeps the per-kernel co-simulation cheap; the engines are pinned
  // against each other elsewhere.
  RunPlan plan;
  plan.mode.engine = flow::SimEngine::kIss;

  const auto check = [&](const kernels::Kernel& kernel) {
    SCOPED_TRACE(std::string(kernel.name()));
    // XRdefault keeps software loops in the program, ZOLClite moves them to
    // hardware tables: both codec shapes must survive the round trip.
    for (const MachineKind machine :
         {MachineKind::kXrDefault, MachineKind::kZolcLite}) {
      const CompileSpec spec = spec_for(std::string(kernel.name()), machine);
      const auto fresh = CompiledUnit::compile(spec);
      ASSERT_TRUE(fresh.ok()) << fresh.error().to_string();
      ASSERT_TRUE(store.save(fresh.value()).ok());

      const auto reloaded = store.load(spec);
      ASSERT_TRUE(reloaded.ok()) << reloaded.error().to_string();
      ASSERT_NE(reloaded.value(), nullptr);
      // Canonical-codec equality covers program words, tables, and the
      // full scan report in one comparison.
      EXPECT_EQ(reloaded.value()->to_json(), fresh.value().to_json());
      // The reloaded unit decodes to the same table, record for record.
      EXPECT_EQ(reloaded.value()->decoded().base,
                fresh.value().decoded().base);
      EXPECT_EQ(reloaded.value()->decoded().ops, fresh.value().decoded().ops);

      const auto a = run(fresh.value(), plan);     // verifies outputs too
      const auto b = run(*reloaded.value(), plan);
      ASSERT_TRUE(a.ok()) << a.error().to_string();
      ASSERT_TRUE(b.ok()) << b.error().to_string();
      EXPECT_EQ(a.value().stats.cycles, b.value().stats.cycles);
      EXPECT_EQ(a.value().stats.instructions, b.value().stats.instructions);
      EXPECT_EQ(a.value().zolc_stats == b.value().zolc_stats, true);
    }
  };
  for (const auto& kernel : kernels::kernel_registry()) check(*kernel);
  for (const auto& kernel : kernels::extended_kernel_registry()) {
    check(*kernel);
  }
  EXPECT_EQ(store.stats().rejects, 0u);
}

TEST(UnitStore, CorruptArtifactsRejectTyped) {
  const std::string dir = fresh_store_dir("unit_store_corrupt");
  UnitStore store(dir);
  const CompileSpec spec = spec_for("fir");
  const auto unit = CompiledUnit::compile(spec);
  ASSERT_TRUE(unit.ok());
  ASSERT_TRUE(store.save(unit.value()).ok());
  const fs::path artifact = only_artifact(dir);
  const std::string pristine = slurp(artifact);

  // Content-altering corruption: flip one program word.
  std::string doctored = pristine;
  const auto word = doctored.find("\"0x");
  ASSERT_NE(word, std::string::npos);
  doctored[word + 3] = doctored[word + 3] == '0' ? '1' : '0';
  spill(artifact, doctored);
  auto loaded = store.load(spec);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.error().code, ErrorCode::kStoreCorrupt);

  // Truncation: not even JSON any more.
  spill(artifact, pristine.substr(0, pristine.size() / 2));
  loaded = store.load(spec);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.error().code, ErrorCode::kStoreCorrupt);

  // Foreign format marker.
  std::string foreign = pristine;
  const auto format = foreign.find("zolcsim-unit-v1");
  ASSERT_NE(format, std::string::npos);
  foreign.replace(format, 15, "zolcsim-unit-v9");
  spill(artifact, foreign);
  loaded = store.load(spec);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.error().code, ErrorCode::kStoreCorrupt);
  EXPECT_EQ(store.stats().rejects, 3u);

  // A recompile-and-save heals the store.
  ASSERT_TRUE(store.save(unit.value()).ok());
  loaded = store.load(spec);
  ASSERT_TRUE(loaded.ok());
  EXPECT_NE(loaded.value(), nullptr);
}

TEST(UnitStore, ADoctoredScanSectionIsReDerivedOnLoad) {
  // load() reads only the payload's program: the unit derives its zolcscan
  // report from the words, so a doctored "scan" section neither loads nor
  // trips the payload digest.
  const std::string dir = fresh_store_dir("unit_store_scan");
  UnitStore store(dir);
  const CompileSpec spec = spec_for("dotprod", MachineKind::kXrDefault);
  const auto unit = CompiledUnit::compile(spec);
  ASSERT_TRUE(unit.ok());
  ASSERT_FALSE(unit.value().scan().candidates.empty());
  ASSERT_TRUE(store.save(unit.value()).ok());
  const fs::path artifact = only_artifact(dir);

  std::string doctored = slurp(artifact);
  const std::string depth = "\"depth\": ";
  const auto at = doctored.find(depth);
  ASSERT_NE(at, std::string::npos);
  char& digit = doctored[at + depth.size()];
  digit = digit == '7' ? '8' : '7';
  spill(artifact, doctored);

  const auto loaded = store.load(spec);
  ASSERT_TRUE(loaded.ok()) << loaded.error().to_string();
  ASSERT_NE(loaded.value(), nullptr);
  EXPECT_EQ(loaded.value()->to_json(), unit.value().to_json());
  EXPECT_EQ(store.stats().rejects, 0u);
}

TEST(UnitStore, StaleToolchainTagRejectsTyped) {
  const std::string dir = fresh_store_dir("unit_store_stale");
  UnitStore store(dir);
  const CompileSpec spec = spec_for("fir");
  const auto unit = CompiledUnit::compile(spec);
  ASSERT_TRUE(unit.ok());
  ASSERT_TRUE(store.save(unit.value()).ok());
  const fs::path artifact = only_artifact(dir);

  // Rewrite the envelope tag to another build's: same key on disk, foreign
  // producer. (Normally a different tag also changes the key, but a
  // compiler upgrade with an unchanged store directory hits exactly this.)
  std::string doctored = slurp(artifact);
  const std::string tag = UnitStore::toolchain_tag();
  const auto at = doctored.find(tag);
  ASSERT_NE(at, std::string::npos);
  doctored.replace(at, tag.size(), "zolcsim-unit-v1|gcc 999.0.0");
  spill(artifact, doctored);

  const auto loaded = store.load(spec);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.error().code, ErrorCode::kStoreStale);
  EXPECT_EQ(store.stats().rejects, 1u);
}

TEST(CompileCacheStore, SecondCacheSkipsEveryCompile) {
  const std::string dir = fresh_store_dir("unit_store_cache");
  UnitStore first_store(dir);
  CompileCache first;
  first.attach_store(&first_store);
  const CompileSpec specs[] = {spec_for("dotprod"), spec_for("fir"),
                               spec_for("conv2d", MachineKind::kZolcFull)};
  for (const CompileSpec& spec : specs) {
    ASSERT_TRUE(first.get_or_compile(spec).ok());
  }
  EXPECT_EQ(first.stats().compiles, 3u);
  EXPECT_EQ(first.stats().store_hits, 0u);
  EXPECT_EQ(first_store.stats().saves, 3u);

  // A fresh cache over the same directory models a second process: every
  // miss is served from disk, nothing compiles.
  UnitStore second_store(dir);
  CompileCache second;
  second.attach_store(&second_store);
  for (const CompileSpec& spec : specs) {
    const auto unit = second.get_or_compile(spec);
    ASSERT_TRUE(unit.ok()) << unit.error().to_string();
    EXPECT_EQ(unit.value()->spec().key(), spec.key());
  }
  EXPECT_EQ(second.stats().misses, 3u);
  EXPECT_EQ(second.stats().store_hits, 3u);
  EXPECT_EQ(second.stats().compiles, 0u);
  EXPECT_EQ(second_store.stats().hits, 3u);
}

TEST(CompileCacheStore, BadArtifactFallsThroughToCompileAndHeals) {
  const std::string dir = fresh_store_dir("unit_store_heal");
  UnitStore store(dir);
  CompileCache cache;
  cache.attach_store(&store);
  const CompileSpec spec = spec_for("dotprod");
  ASSERT_TRUE(cache.get_or_compile(spec).ok());
  const fs::path artifact = only_artifact(dir);
  spill(artifact, "garbage");

  UnitStore second_store(dir);
  CompileCache second;
  second.attach_store(&second_store);
  const auto unit = second.get_or_compile(spec);
  ASSERT_TRUE(unit.ok());  // the bad artifact must not fail the lookup
  EXPECT_EQ(second.stats().compiles, 1u);
  EXPECT_EQ(second.stats().store_hits, 0u);
  // ... and the compile overwrote it for the next process.
  UnitStore third(dir);
  const auto healed = third.load(spec);
  ASSERT_TRUE(healed.ok()) << healed.error().to_string();
  EXPECT_NE(healed.value(), nullptr);
}

TEST(UnitStore, KeyDependsOnEveryAxis) {
  const CompileSpec base = spec_for("dotprod");
  CompileSpec machine = base;
  machine.machine = MachineKind::kZolcFull;
  CompileSpec geometry = base;
  geometry.geometry.max_loops = 12;
  CompileSpec env = base;
  env.env.scale = 2;
  CompileSpec kernel = base;
  kernel.kernel = "fir";
  const std::uint64_t key = UnitStore::key_of(base);
  EXPECT_NE(UnitStore::key_of(machine), key);
  EXPECT_NE(UnitStore::key_of(geometry), key);
  EXPECT_NE(UnitStore::key_of(env), key);
  EXPECT_NE(UnitStore::key_of(kernel), key);
}

}  // namespace
}  // namespace zolcsim::flow
