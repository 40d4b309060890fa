#include "cli.hpp"

#include "common/strings.hpp"

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

std::string render_error(const Error& error) {
  return "error[" + std::string(error_code_name(error.code)) + "]: " +
         error.to_string();
}

}  // namespace zolcsim::cli
