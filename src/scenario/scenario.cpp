#include "scenario/scenario.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>
#include <utility>

#include "common/json.hpp"
#include "common/strings.hpp"
#include "scenario/parse.hpp"

namespace zolcsim::scenario {

namespace {

Error shape_error(std::string_view origin, std::string msg) {
  return Error{ErrorCode::kParse, std::move(msg)}.with_context(
      "suite " + std::string(origin));
}

Error config_error(std::string_view origin, std::string msg) {
  return Error{ErrorCode::kBadConfig, std::move(msg)}.with_context(
      "suite " + std::string(origin));
}

std::string quoted(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '\'';
  out += s;
  out += '\'';
  return out;
}

/// Member as an unsigned integer with a default; rejects non-integers.
Result<std::uint64_t> uint_member(const json::Value& object,
                                  std::string_view key,
                                  std::uint64_t fallback,
                                  std::string_view origin) {
  const json::Value* member = object.find(key);
  if (member == nullptr) return fallback;
  const auto n = member->as_uint();
  if (!n) {
    return shape_error(origin,
                       quoted(key) + " must be a non-negative integer");
  }
  return *n;
}

Result<void> parse_sweep(const json::Value& sweep, Suite& suite,
                         std::string_view origin) {
  static constexpr std::string_view kKnown[] = {
      "baseline", "max_cycles", "env", "timing_reps"};
  for (const auto& [key, value] : sweep.members()) {
    (void)value;
    bool known = false;
    for (const std::string_view k : kKnown) known |= key == k;
    for (const harness::SweepAxis& axis : harness::sweep_axes()) {
      known |= key == axis.flag;
    }
    if (!known) {
      return shape_error(origin, "unknown sweep member '" + key + "'");
    }
  }

  // The grid axes: arrays of labels (tenant counts as JSON integers), each
  // item through the same parser as the CLI's sweep flags.
  for (const harness::SweepAxis& axis : harness::sweep_axes()) {
    const json::Value* member = sweep.find(axis.flag);
    if (member == nullptr) continue;
    if (!member->is_array()) {
      return shape_error(origin, quoted(axis.flag) + " must be an array");
    }
    for (const json::Value& item : member->items()) {
      if (axis.numeric ? !item.is_number() : !item.is_string()) {
        return shape_error(origin,
                           quoted(axis.flag) + " must contain only " +
                               (axis.numeric ? "integers" : "strings"));
      }
      const std::string text =
          axis.numeric ? json::serialize(item) : item.as_string();
      if (auto added = append_axis_value(suite.sweep, axis.id, text);
          !added.ok()) {
        return std::move(added).error().with_context("suite " +
                                                     std::string(origin));
      }
    }
  }

  if (const json::Value* baseline = sweep.find("baseline")) {
    if (!baseline->is_string()) {
      return shape_error(origin, "'baseline' must be a machine name string");
    }
    auto machine = parse_machine(baseline->as_string());
    if (!machine.ok()) {
      return std::move(machine).error().with_context("suite " +
                                                     std::string(origin));
    }
    suite.sweep.baseline = machine.value();
  }

  auto max_cycles =
      uint_member(sweep, "max_cycles", suite.sweep.max_cycles, origin);
  if (!max_cycles.ok()) return std::move(max_cycles).error();
  if (max_cycles.value() == 0) {
    return config_error(origin, "'max_cycles' must be positive");
  }
  suite.sweep.max_cycles = max_cycles.value();

  auto timing_reps =
      uint_member(sweep, "timing_reps", suite.sweep.timing_reps, origin);
  if (!timing_reps.ok()) return std::move(timing_reps).error();
  if (timing_reps.value() == 0 || timing_reps.value() > 1000) {
    return config_error(origin, "'timing_reps' must be in [1, 1000]");
  }
  suite.sweep.timing_reps = timing_reps.value();

  if (const json::Value* env = sweep.find("env")) {
    if (!env->is_object()) {
      return shape_error(origin, "'env' must be an object");
    }
    for (const auto& [key, value] : env->members()) {
      (void)value;
      if (key != "scale" && key != "seed") {
        return shape_error(origin, "unknown env member '" + key + "'");
      }
    }
    auto scale = uint_member(*env, "scale", suite.sweep.env.scale, origin);
    if (!scale.ok()) return std::move(scale).error();
    if (scale.value() == 0 || scale.value() > 0xFFFF) {
      return config_error(origin, "env 'scale' out of range");
    }
    suite.sweep.env.scale = static_cast<unsigned>(scale.value());
    auto seed = uint_member(*env, "seed", suite.sweep.env.seed, origin);
    if (!seed.ok()) return std::move(seed).error();
    if (seed.value() > 0xFFFF'FFFFull) {
      return config_error(origin, "env 'seed' must fit 32 bits");
    }
    suite.sweep.env.seed = static_cast<std::uint32_t>(seed.value());
  }
  return {};
}

Result<void> parse_expect(const json::Value& expect, Suite& suite,
                          std::string_view origin) {
  for (const auto& [key, value] : expect.members()) {
    (void)value;
    if (key != "csv_fnv1a64" && key != "thresholds") {
      return shape_error(origin, "unknown expect member '" + key + "'");
    }
  }
  if (const json::Value* hash = expect.find("csv_fnv1a64")) {
    if (!hash->is_string()) {
      return shape_error(origin,
                         "'csv_fnv1a64' must be a 16-hex-digit string");
    }
    const auto digest = parse_hex64(hash->as_string());
    if (!digest) {
      return config_error(origin, "bad 'csv_fnv1a64' digest '" +
                                      hash->as_string() + "'");
    }
    suite.expect_csv_fnv1a64 = *digest;
  }
  const json::Value* thresholds = expect.find("thresholds");
  if (thresholds == nullptr) return {};
  if (!thresholds->is_array()) {
    return shape_error(origin, "'thresholds' must be an array");
  }
  for (const json::Value& entry : thresholds->items()) {
    if (!entry.is_object()) {
      return shape_error(origin, "each threshold must be an object");
    }
    static constexpr std::string_view kKnown[] = {
        "kernel",   "machine",    "config",  "geometry",
        "mode",     "max_cycles", "min_mips"};
    for (const auto& [key, value] : entry.members()) {
      (void)value;
      bool known = false;
      for (const std::string_view k : kKnown) known |= key == k;
      if (!known) {
        return shape_error(origin, "unknown threshold member '" + key + "'");
      }
    }
    // The cell's axis labels (empty = the axis's first point). Machine and
    // mode parse case-insensitively and are kept in label form, the form
    // the runner matches against the report.
    Threshold t;
    static constexpr std::pair<std::string_view, std::string Threshold::*>
        kCell[] = {{"kernel", &Threshold::kernel},
                   {"machine", &Threshold::machine},
                   {"config", &Threshold::config},
                   {"geometry", &Threshold::geometry},
                   {"mode", &Threshold::mode}};
    for (const auto& [key, field] : kCell) {
      const json::Value* member = entry.find(key);
      if (member == nullptr) continue;
      if (!member->is_string()) {
        return shape_error(origin,
                           "threshold " + quoted(key) + " must be a string");
      }
      t.*field = member->as_string();
    }
    if (t.kernel.empty() || t.machine.empty()) {
      return shape_error(origin,
                         "threshold needs a string 'kernel' and 'machine'");
    }
    auto machine = parse_machine(t.machine);
    if (!machine.ok()) {
      return std::move(machine).error().with_context("suite " +
                                                     std::string(origin));
    }
    t.machine = codegen::machine_name(machine.value());
    if (!t.mode.empty()) {
      auto mode = parse_mode(t.mode);
      if (!mode.ok()) {
        return std::move(mode).error().with_context("suite " +
                                                    std::string(origin));
      }
      t.mode = flow::mode_name(mode.value());
    }
    auto max_cycles = uint_member(entry, "max_cycles", 0, origin);
    if (!max_cycles.ok()) return std::move(max_cycles).error();
    t.max_cycles = max_cycles.value();
    if (const json::Value* mips = entry.find("min_mips")) {
      if (!mips->is_number() || mips->as_number() < 0) {
        return shape_error(origin,
                           "threshold 'min_mips' must be a non-negative "
                           "number");
      }
      t.min_mips = mips->as_number();
    }
    if (t.max_cycles == 0 && t.min_mips == 0.0) {
      return config_error(origin,
                          "threshold on '" + t.kernel +
                              "' checks nothing (set max_cycles or "
                              "min_mips)");
    }
    suite.thresholds.push_back(std::move(t));
  }
  return {};
}

}  // namespace

Result<Suite> parse_suite(std::string_view text, std::string_view origin) {
  auto document = json::parse(text);
  if (!document.ok()) {
    return std::move(document).error().with_context("suite " +
                                                    std::string(origin));
  }
  const json::Value& root = document.value();
  if (!root.is_object()) {
    return shape_error(origin, "suite document must be a JSON object");
  }
  for (const auto& [key, value] : root.members()) {
    (void)value;
    if (key != "suite" && key != "version" && key != "description" &&
        key != "sweep" && key != "expect") {
      return shape_error(origin, "unknown top-level member '" + key + "'");
    }
  }

  Suite suite;
  const json::Value* name = root.find("suite");
  if (name == nullptr || !name->is_string() || name->as_string().empty()) {
    return shape_error(origin, "missing or empty 'suite' name");
  }
  suite.name = name->as_string();
  for (const char c : suite.name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                    c == '_' || c == '-';
    if (!ok) {
      return config_error(origin,
                          "suite name '" + suite.name +
                              "' must be [a-z0-9_-] (it names the "
                              "BENCH_<suite>.json artifact)");
    }
  }

  auto version = uint_member(root, "version", 0, origin);
  if (!version.ok()) return std::move(version).error();
  if (version.value() != kSuiteSchemaVersion) {
    return config_error(origin,
                        "unsupported suite schema version " +
                            std::to_string(version.value()) + " (expected " +
                            std::to_string(kSuiteSchemaVersion) + ")");
  }

  if (const json::Value* description = root.find("description")) {
    if (!description->is_string()) {
      return shape_error(origin, "'description' must be a string");
    }
    suite.description = description->as_string();
  }

  const json::Value* sweep = root.find("sweep");
  if (sweep == nullptr || !sweep->is_object()) {
    return shape_error(origin, "missing 'sweep' object");
  }
  if (auto parsed = parse_sweep(*sweep, suite, origin); !parsed.ok()) {
    return std::move(parsed).error();
  }

  if (const json::Value* expect = root.find("expect")) {
    if (!expect->is_object()) {
      return shape_error(origin, "'expect' must be an object");
    }
    if (auto parsed = parse_expect(*expect, suite, origin); !parsed.ok()) {
      return std::move(parsed).error();
    }
  }
  return suite;
}

Result<Suite> load_suite_file(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    return Error{ErrorCode::kIo, "cannot read suite file '" + path + "'"};
  }
  std::ostringstream text;
  text << file.rdbuf();
  return parse_suite(text.str(), path);
}

Result<std::vector<std::string>> list_suite_files(const std::string& dir) {
  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec);
  if (ec) {
    return Error{ErrorCode::kIo,
                 "cannot list suite directory '" + dir + "': " + ec.message()};
  }
  std::vector<std::string> files;
  for (const auto& entry : it) {
    if (entry.is_regular_file() && entry.path().extension() == ".json") {
      files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

}  // namespace zolcsim::scenario
