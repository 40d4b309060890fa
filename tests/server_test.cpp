// End-to-end serve daemon behaviour over a real Unix-domain socket: warm
// second requests (zero compiles), byte-identity between the server's sweep
// rendering and the local run_suite path for every checked-in scenario
// suite, a run reply against a local flow::run, two concurrent clients
// compiling each unit exactly once (the cache's singleflight guarantee),
// the stats endpoint, the retired store-stat request, idle timeouts, and
// graceful drain.
#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "flow/cache.hpp"
#include "flow/compiled_unit.hpp"
#include "flow/run.hpp"
#include "scenario/parse.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"
#include "server/client.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"

namespace zolcsim::server {
namespace {

namespace fs = std::filesystem;

/// A two-unit grid: big enough to exercise the cache, small enough that
/// the multi-request tests stay fast.
constexpr std::string_view kTinySuite = R"({
  "suite": "serve_tiny",
  "version": 1,
  "description": "two-kernel smoke grid for the serve tests",
  "sweep": {"kernels": ["dotprod", "vecmax"], "machines": ["ZOLCfull"]}
})";

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::uint64_t nested_uint(const json::Value& reply, std::string_view group,
                          std::string_view member) {
  const json::Value* object = reply.find(group);
  if (object == nullptr || !object->is_object()) return ~std::uint64_t{0};
  const json::Value* value = object->find(member);
  const auto n = value ? value->as_uint() : std::nullopt;
  return n.value_or(~std::uint64_t{0});
}

class ServerTest : public testing::Test {
 protected:
  void start(ServeOptions options = {}) {
    socket_path_ = std::string(testing::TempDir()) + "zolcsim_serve_" +
                   std::to_string(::getpid()) + ".sock";
    options.socket_path = socket_path_;
    if (options.workers == 4) options.workers = 2;
    options.sweep_threads = 2;
    daemon_.emplace(std::move(options));
    auto started = daemon_->start();
    ASSERT_TRUE(started.ok()) << started.error().to_string();
  }

  void TearDown() override {
    if (daemon_) {
      daemon_->begin_drain();
      daemon_->wait();
    }
  }

  Client connect_ok() {
    auto client = Client::connect(socket_path_);
    EXPECT_TRUE(client.ok());
    return std::move(client).value();
  }

  /// One sweep request; returns the parsed reply document.
  json::Value sweep_ok(Client& client, std::string_view suite_document,
                       bool json_format = false) {
    auto request = sweep_request(suite_document, json_format);
    EXPECT_TRUE(request.ok());
    auto reply = client.call(request.value(), 120'000);
    EXPECT_TRUE(reply.ok()) << (reply.ok() ? ""
                                           : reply.error().to_string());
    return reply.ok() ? std::move(reply).value() : json::Value{};
  }

  std::string socket_path_;
  std::optional<Server> daemon_;
};

TEST_F(ServerTest, SecondIdenticalSweepIsFullyWarm) {
  start();
  Client client = connect_ok();
  const json::Value first = sweep_ok(client, kTinySuite);
  EXPECT_GT(nested_uint(first, "cache", "compiles"), 0u);

  // The acceptance bar of the warm-serving story: an identical second
  // request reports zero compiles. Single-rep cells reset no image.
  const json::Value second = sweep_ok(client, kTinySuite);
  EXPECT_EQ(nested_uint(second, "cache", "compiles"), 0u);
  EXPECT_EQ(nested_uint(second, "cache", "misses"), 0u);
  EXPECT_EQ(nested_uint(second, "prepares", "image_resets"), 0u);
  EXPECT_GT(nested_uint(second, "cache", "hits"), 0u);
}

TEST_F(ServerTest, SweepOutputMatchesLocalRunByteForByte) {
  start();
  Client client = connect_ok();
  // One warm local cache across the directory, mirroring the daemon's own
  // warm state: rendered output must not depend on cache temperature.
  flow::CompileCache local_cache;
  scenario::RunOptions local_options;
  local_options.threads = 2;

  auto files = scenario::list_suite_files(ZOLCSIM_SCENARIO_DIR);
  ASSERT_TRUE(files.ok()) << files.error().to_string();
  ASSERT_FALSE(files.value().empty());
  for (const std::string& path : files.value()) {
    SCOPED_TRACE(path);
    const std::string document = slurp(path);

    auto suite = scenario::parse_suite(document, path);
    ASSERT_TRUE(suite.ok()) << suite.error().to_string();
    auto local =
        scenario::run_suite(suite.value(), local_cache, local_options);
    ASSERT_TRUE(local.ok()) << local.error().to_string();

    const json::Value csv_reply = sweep_ok(client, document);
    auto csv = reply_string(csv_reply, "output");
    ASSERT_TRUE(csv.ok());
    EXPECT_EQ(csv.value(), local.value().csv);

    const json::Value json_reply = sweep_ok(client, document, true);
    auto rendered = reply_string(json_reply, "output");
    ASSERT_TRUE(rendered.ok());
    EXPECT_EQ(rendered.value(), local.value().report.to_json());
  }
}

TEST_F(ServerTest, ConcurrentIdenticalSweepsCompileEachUnitOnce) {
  start();
  // How many distinct units does the tiny suite need? Ask a fresh local
  // cache.
  flow::CompileCache local_cache;
  auto suite = scenario::parse_suite(kTinySuite, "tiny");
  ASSERT_TRUE(suite.ok());
  auto local = scenario::run_suite(suite.value(), local_cache, {});
  ASSERT_TRUE(local.ok()) << local.error().to_string();
  const std::size_t distinct_units = local_cache.stats().compiles;
  ASSERT_GT(distinct_units, 0u);

  // Two clients race the same sweep against the cold daemon. The striped
  // cache's singleflight must hold: every unit compiles exactly once
  // process-wide, and both replies carry identical bytes (which also match
  // the local rendering).
  std::vector<std::string> outputs(2);
  std::vector<std::thread> clients;
  for (std::string& slot : outputs) {
    clients.emplace_back([this, &slot] {
      auto client = Client::connect(socket_path_);
      ASSERT_TRUE(client.ok());
      auto request = sweep_request(kTinySuite, false);
      ASSERT_TRUE(request.ok());
      auto reply = client.value().call(request.value(), 120'000);
      ASSERT_TRUE(reply.ok()) << reply.error().to_string();
      auto output = reply_string(reply.value(), "output");
      ASSERT_TRUE(output.ok());
      slot = output.value();
    });
  }
  for (std::thread& thread : clients) thread.join();

  EXPECT_FALSE(outputs[0].empty());
  EXPECT_EQ(outputs[0], outputs[1]);
  EXPECT_EQ(outputs[0], local.value().csv);

  Client client = connect_ok();
  auto stats = client.call(simple_request(RequestType::kStats));
  ASSERT_TRUE(stats.ok()) << stats.error().to_string();
  // The lifetime compile count, not the per-request deltas (those overlap
  // under concurrency): exactly one compile per distinct unit.
  EXPECT_EQ(nested_uint(stats.value(), "cache", "compiles"), distinct_units);
}

TEST_F(ServerTest, RunReplyMatchesLocalRun) {
  // Every run-only member is set, so each reaches the daemon's plan.
  start();
  Client client = connect_ok();
  auto reply = client.call(
      R"({"schema": "zolcsim-serve-v1", "type": "run", "kernel": "dotprod",)"
      R"( "machine": "ZOLCfull", "config": "EX-resolve/rollback",)"
      R"( "mode": "iss", "max_cycles": 1000000, "tenants": 2,)"
      R"( "preempt_every": 7})");
  ASSERT_TRUE(reply.ok()) << reply.error().to_string();

  flow::CompileSpec spec;
  spec.kernel = "dotprod";
  spec.machine = codegen::MachineKind::kZolcFull;
  auto unit = flow::CompiledUnit::compile(spec);
  ASSERT_TRUE(unit.ok()) << unit.error().to_string();
  flow::RunPlan plan;
  plan.mode.engine = flow::SimEngine::kIss;
  plan.max_cycles = 1'000'000;
  plan.tenants = 2;
  plan.preempt_every = 7;
  auto local = flow::run(unit.value(), plan);
  ASSERT_TRUE(local.ok()) << local.error().to_string();
  const flow::ExperimentResult& r = local.value();
  ASSERT_GT(r.context_switches, 1u);  // the 7-instruction quantum applied

  const auto member = [&reply](std::string_view key) {
    const json::Value* value = reply.value().find(key);
    const auto n = value ? value->as_uint() : std::nullopt;
    return n.value_or(~std::uint64_t{0});
  };
  EXPECT_EQ(member("cycles"), r.stats.cycles);
  EXPECT_EQ(member("instructions"), r.stats.instructions);
  EXPECT_EQ(member("continue_events"), r.zolc_stats.continue_events);
  EXPECT_EQ(member("done_events"), r.zolc_stats.done_events);
  EXPECT_EQ(member("table_writes"), r.zolc_stats.table_writes);
  EXPECT_EQ(member("tenants"), 2u);
  EXPECT_EQ(member("ctx_switches"), r.context_switches);
  EXPECT_EQ(member("ctx_switch_cycles"), r.context_switch_cycles);
}

TEST_F(ServerTest, StatsEndpointCountsRequestsAndLatency) {
  start();
  Client client = connect_ok();
  ASSERT_TRUE(client.call(simple_request(RequestType::kPing)).ok());
  ASSERT_TRUE(client.call(simple_request(RequestType::kPing)).ok());
  (void)sweep_ok(client, kTinySuite);

  auto stats = client.call(simple_request(RequestType::kStats));
  ASSERT_TRUE(stats.ok()) << stats.error().to_string();
  const json::Value& v = stats.value();
  EXPECT_EQ(nested_uint(v, "by_type", "ping"), 2u);
  EXPECT_EQ(nested_uint(v, "by_type", "sweep"), 1u);
  // The stats request itself isn't counted yet.
  EXPECT_EQ(v.find("requests")->as_uint(), 3u);
  EXPECT_EQ(nested_uint(v, "wall_ms", "samples"), 3u);
  EXPECT_EQ(nested_uint(v, "mips", "samples"), 1u);
}

/// "name:kind" for every member of `value`, depth first, nested names
/// joined with dots.
void member_kinds(const json::Value& value, const std::string& prefix,
                  std::vector<std::string>& out) {
  for (const auto& [name, member] : value.members()) {
    const std::string path = prefix.empty() ? name : prefix + "." + name;
    if (member.is_object()) {
      out.push_back(path + ":object");
      member_kinds(member, path, out);
      continue;
    }
    out.push_back(path + (member.is_string()   ? ":string"
                          : member.is_number() ? ":number"
                          : member.is_bool()   ? ":bool"
                                               : ":other"));
  }
}

TEST_F(ServerTest, StatsReplyKeepsEveryMemberAndReportsTheCacheBound) {
  start();
  Client client = connect_ok();
  auto stats = client.call(simple_request(RequestType::kStats));
  ASSERT_TRUE(stats.ok()) << stats.error().to_string();
  std::vector<std::string> kinds;
  member_kinds(stats.value(), "", kinds);
  std::vector<std::string> expected = {
      "schema:string", "reply:string", "requests:number",
      "connections:number", "errors:number", "by_type:object"};
  for (std::size_t i = 0; i < kNumRequestTypes; ++i) {
    expected.push_back("by_type." +
                       std::string(request_type_name(
                           static_cast<RequestType>(i))) +
                       ":number");
  }
  for (const char* member :
       {"cache:object", "cache.hits:number", "cache.misses:number",
        "cache.compiles:number", "cache.hit_rate:number",
        "cache.evictions:number",
        "cache.resident_bytes:number", "prepares:object",
        "prepares.image_resets:number", "wall_ms:object",
        "wall_ms.p50:number", "wall_ms.p90:number", "wall_ms.p99:number",
        "wall_ms.samples:number", "mips:object", "mips.p50:number",
        "mips.p90:number", "mips.p99:number", "mips.samples:number",
        "workers:number", "draining:bool"}) {
    expected.emplace_back(member);
  }
  EXPECT_EQ(kinds, expected);
}

TEST_F(ServerTest, StoreStatIsAnUnknownRequestType) {
  // "store-stat" names no request type: it is refused with the typed
  // unknown-type error, and the connection survives.
  start();
  Client client = connect_ok();
  auto reply =
      client.call(R"({"schema": "zolcsim-serve-v1", "type": "store-stat"})");
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.error().code, ErrorCode::kBadConfig);
  EXPECT_TRUE(client.call(simple_request(RequestType::kPing)).ok());
}

TEST_F(ServerTest, FirstSeenUnitsPastTheBoundAreEvictedAndRecompileIdentically) {
  start();
  Client client = connect_ok();
  // Distinct dotprod units, one ZOLC geometry each.
  std::vector<std::string> geometries;
  for (unsigned tasks = 16; tasks <= 32; ++tasks) {
    for (unsigned loops = 8; loops <= 16; ++loops) {
      for (unsigned exits = 2; exits <= 8; ++exits) {
        geometries.push_back(std::to_string(tasks) + "t-" +
                             std::to_string(loops) + "l-" +
                             std::to_string(exits) + "x-4e");
      }
    }
  }
  const auto run_cycles = [&client](const std::string& geometry) {
    auto reply = client.call(
        R"({"schema": "zolcsim-serve-v1", "type": "run", "kernel": "dotprod",)"
        R"( "machine": "ZOLCfull", "mode": "iss-fast", "geometry": ")" +
        geometry + "\"}");
    EXPECT_TRUE(reply.ok()) << reply.error().to_string();
    const json::Value* cycles = reply.ok() ? reply.value().find("cycles")
                                           : nullptr;
    return cycles ? cycles->as_uint().value_or(0) : 0;
  };
  const auto cache_member = [&client](std::string_view member) {
    auto reply = client.call(simple_request(RequestType::kStats));
    EXPECT_TRUE(reply.ok()) << reply.error().to_string();
    return reply.ok() ? nested_uint(reply.value(), "cache", member)
                      : ~std::uint64_t{0};
  };

  const std::uint64_t first_cycles = run_cycles(geometries.front());
  ASSERT_GT(first_cycles, 0u);
  // Three bounds' worth of units, each charged about as much as the first
  // (its decoded records, code and prepared image).
  flow::CompileSpec spec;
  spec.kernel = "dotprod";
  spec.machine = codegen::MachineKind::kZolcFull;
  auto geometry = scenario::parse_geometry(geometries.front());
  ASSERT_TRUE(geometry.ok());
  spec.geometry = geometry.value();
  auto unit = flow::CompiledUnit::compile(spec);
  ASSERT_TRUE(unit.ok()) << unit.error().to_string();
  (void)unit.value().prepared_image();
  const std::size_t flood =
      3 * flow::CompileCache::kMaxResidentBytes / unit.value().resident_bytes();
  ASSERT_LT(flood, geometries.size());
  for (std::size_t i = 1; i <= flood; ++i) {
    ASSERT_GT(run_cycles(geometries[i]), 0u) << geometries[i];
  }

  EXPECT_LE(cache_member("resident_bytes"),
            flow::CompileCache::kMaxResidentBytes);
  EXPECT_GT(cache_member("evictions"), 0u);
  // The first unit was evicted: running it again compiles it once more and
  // returns the same cycles.
  const std::uint64_t compiles = cache_member("compiles");
  EXPECT_EQ(run_cycles(geometries.front()), first_cycles);
  EXPECT_EQ(cache_member("compiles"), compiles + 1);
}

TEST_F(ServerTest, IdleConnectionsAreClosedButTheDaemonSurvives) {
  ServeOptions options;
  options.idle_timeout_ms = 150;
  start(std::move(options));
  Client idle = connect_ok();
  std::this_thread::sleep_for(std::chrono::milliseconds(600));
  // The daemon dropped the silent connection; the call fails on transport,
  // not with an error reply.
  auto reply = idle.call(simple_request(RequestType::kPing), 2'000);
  EXPECT_FALSE(reply.ok());
  EXPECT_EQ(reply.error().code, ErrorCode::kIo);
  // ...but fresh connections are served as ever.
  Client fresh = connect_ok();
  EXPECT_TRUE(fresh.call(simple_request(RequestType::kPing)).ok());
}

TEST_F(ServerTest, ShutdownRequestDrainsAndReleasesTheSocket) {
  start();
  Client client = connect_ok();
  auto reply = client.call(simple_request(RequestType::kShutdown));
  ASSERT_TRUE(reply.ok()) << reply.error().to_string();
  auto kind = reply_string(reply.value(), "reply");
  ASSERT_TRUE(kind.ok());
  EXPECT_EQ(kind.value(), "shutdown");

  daemon_->wait();  // the drain the reply promised must complete
  EXPECT_TRUE(daemon_->draining());
  // The listener is closed and the socket file removed: connecting fails.
  auto refused = Client::connect(socket_path_);
  EXPECT_FALSE(refused.ok());
  EXPECT_FALSE(fs::exists(socket_path_));
}

}  // namespace
}  // namespace zolcsim::server
