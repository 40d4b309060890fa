#include "cli.hpp"

#include "common/strings.hpp"
#include "scenario/parse.hpp"

namespace zolcsim::cli {

Args Args::parse(int argc, char** argv, int skip) {
  Args args;
  for (int i = skip; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (starts_with(arg, "--")) {
      args.flags.emplace_back(arg);
    } else {
      args.positional.emplace_back(arg);
    }
  }
  return args;
}

std::optional<std::string> Args::value_of(std::string_view name) const {
  const std::string prefix = "--" + std::string(name) + "=";
  for (const std::string& flag : flags) {
    if (starts_with(flag, prefix)) return flag.substr(prefix.size());
  }
  return std::nullopt;
}

bool Args::has(std::string_view name) const {
  const std::string bare = "--" + std::string(name);
  for (const std::string& flag : flags) {
    if (flag == bare) return true;
  }
  return false;
}

std::vector<std::string> Args::unknown(
    const std::vector<std::string_view>& known_values,
    const std::vector<std::string_view>& known_switches) const {
  std::vector<std::string> out;
  for (const std::string& flag : flags) {
    bool known = false;
    for (const std::string_view name : known_values) {
      if (starts_with(flag, "--" + std::string(name) + "=")) {
        known = true;
        break;
      }
    }
    for (const std::string_view name : known_switches) {
      if (flag == "--" + std::string(name)) {
        known = true;
        break;
      }
    }
    if (!known) out.push_back(flag);
  }
  return out;
}

std::vector<std::string> split_list(std::string_view s) {
  std::vector<std::string> out;
  if (s.empty()) return out;
  for (const std::string_view item : split(s, ',')) {
    out.emplace_back(item);
  }
  return out;
}

Result<void> read_run_options(const Args& args, bool run,
                              flow::CompileSpec& spec, flow::RunPlan& plan) {
  spec.machine = scenario::kDefaultMachine;
  for (const scenario::RunOption& option : scenario::run_options()) {
    if (option.run_only && !run) continue;
    const auto text = args.value_of(option.flag);
    if (!text) continue;
    const std::string flag = "--" + std::string(option.flag);
    if (text->empty()) {
      return Error{ErrorCode::kBadConfig, "empty value for " + flag};
    }
    if (auto applied = option.apply(*text, spec, plan); !applied.ok()) {
      return std::move(applied).error().with_context(flag);
    }
  }
  return {};
}

std::string render_error(const Error& error) {
  return "error[" + std::string(error_code_name(error.code)) + "]: " +
         error.to_string();
}

}  // namespace zolcsim::cli
