// Argument handling for the zolcsim CLI driver: flag/positional splitting,
// list values, the run-option flags and error rendering. The values
// themselves parse with scenario::parse_* and scenario::run_options()
// (scenario/parse.hpp), the grammar suite files and serve requests share.
#ifndef ZOLCSIM_TOOLS_ZOLCSIM_CLI_HPP
#define ZOLCSIM_TOOLS_ZOLCSIM_CLI_HPP

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.hpp"
#include "flow/run.hpp"

namespace zolcsim::cli {

/// Flag helpers over argv (skipping argv[0] and the subcommand).
struct Args {
  std::vector<std::string> positional;
  std::vector<std::string> flags;  ///< "--..." tokens, in order

  [[nodiscard]] static Args parse(int argc, char** argv, int skip);

  /// Value of "--name=value"; nullopt when the flag is absent. An explicit
  /// empty value ("--name=") returns an empty string so callers can reject
  /// it instead of silently falling back to a default.
  [[nodiscard]] std::optional<std::string> value_of(
      std::string_view name) const;
  [[nodiscard]] bool has(std::string_view name) const;
  /// Flags that are neither in `known_values` (as --k=v) nor in
  /// `known_switches` (as bare --k); non-empty means a usage error.
  [[nodiscard]] std::vector<std::string> unknown(
      const std::vector<std::string_view>& known_values,
      const std::vector<std::string_view>& known_switches) const;
};

/// Splits "a,b,c" (empty input -> empty vector).
[[nodiscard]] std::vector<std::string> split_list(std::string_view s);

/// Reads the scenario::run_options() flags of `run` (all seven) or of
/// `compile` (machine and geometry) into `spec` and `plan`, after setting
/// the default machine; an absent flag leaves its field alone. An empty or
/// unparsable value is an error (kBadConfig) naming the flag.
[[nodiscard]] Result<void> read_run_options(const Args& args, bool run,
                                            flow::CompileSpec& spec,
                                            flow::RunPlan& plan);

/// Renders an Error for the terminal: "error[code]: trail".
[[nodiscard]] std::string render_error(const Error& error);

}  // namespace zolcsim::cli

#endif  // ZOLCSIM_TOOLS_ZOLCSIM_CLI_HPP
