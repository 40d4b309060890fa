// Result<T>: a lightweight expected-like type for operations with anticipated
// failure modes (parsing, assembling, configuration). Per the Core Guidelines
// (E.2/E.14 area), exceptions are reserved for contract violations and
// simulator traps; everything a caller is expected to handle flows through
// Result.
//
// Errors are structured: a machine-checkable ErrorCode (what class of thing
// went wrong), a human-readable message (the innermost detail), and a context
// chain that grows as the error propagates up through the staged toolchain
// (kernel -> lowering -> run), so callers can both branch on the code and
// print a full "where it happened" trail.
#ifndef ZOLCSIM_COMMON_RESULT_HPP
#define ZOLCSIM_COMMON_RESULT_HPP

#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "common/contracts.hpp"

namespace zolcsim {

/// Thrown on simulator traps: illegal instruction, disabled ISA extension,
/// a ZOLC table fault, runaway execution.
class SimError : public std::runtime_error {
 public:
  explicit SimError(const std::string& what_arg)
      : std::runtime_error(what_arg) {}
};

/// Machine-checkable failure classes. Tests and tools branch on these, never
/// on message text.
enum class ErrorCode : std::uint8_t {
  kUnknown = 0,     ///< unclassified (avoid: classify at the throw site)
  kParse,           ///< malformed JSON, scenario or request text
  kEncode,          ///< instruction encoding range violations (imm/offset)
  kBadConfig,       ///< invalid geometry, sweep spec, or CLI usage
  kUnknownKernel,   ///< kernel name not present in any registry
  kInvalidKernel,   ///< malformed KIR (reserved regs, zero-trip loops, ...)
  kCapacity,        ///< ZOLC table / window capacity overrun, no SW fallback
  kSimulation,      ///< simulator trap or cycle-budget exhaustion
  kVerifyMismatch,  ///< output differs from the golden reference
  kIo,              ///< file read/write failure (CLI)
  kThreshold,       ///< scenario perf threshold violated (cycles / MIPS)

  // zolcscan rejection classes: why a counted loop was not accelerable.
  // Rejections are ordinary analysis output (the scan itself still
  // succeeds), but they share the Error shape so tests and tools branch on
  // the code, never on message text.
  kScanNotInnermost,     ///< loop contains a nested loop (uZOLC is 1-level)
  kScanIrregularShape,   ///< back edge is not the addi/blt counted idiom
  kScanMultiExit,        ///< multiple exits/entries need ZOLCfull
  kScanNonConstantBound, ///< index/bound are not simple constants
  kScanUnsafeBody,       ///< body writes index/bound or makes calls
  kScanTailTargeted,     ///< a branch targets the patched tail
  kScanLiveIndex,        ///< index register is live after the loop

  // On-disk unit store (flow::UnitStore) artifact rejections.
  kStoreCorrupt,  ///< artifact fails shape / integrity / key checks
  kStoreStale,    ///< artifact written under a different toolchain tag

  // Accelerator context switching (zolc::ZolcContext).
  kBadContext,  ///< context/snapshot does not fit the controller's geometry
};

[[nodiscard]] constexpr std::string_view error_code_name(
    ErrorCode code) noexcept {
  switch (code) {
    case ErrorCode::kUnknown: return "unknown";
    case ErrorCode::kParse: return "parse";
    case ErrorCode::kEncode: return "encode";
    case ErrorCode::kBadConfig: return "bad-config";
    case ErrorCode::kUnknownKernel: return "unknown-kernel";
    case ErrorCode::kInvalidKernel: return "invalid-kernel";
    case ErrorCode::kCapacity: return "capacity";
    case ErrorCode::kSimulation: return "simulation";
    case ErrorCode::kVerifyMismatch: return "verify-mismatch";
    case ErrorCode::kIo: return "io";
    case ErrorCode::kThreshold: return "threshold";
    case ErrorCode::kScanNotInnermost: return "scan-not-innermost";
    case ErrorCode::kScanIrregularShape: return "scan-irregular-shape";
    case ErrorCode::kScanMultiExit: return "scan-multi-exit";
    case ErrorCode::kScanNonConstantBound: return "scan-non-constant-bound";
    case ErrorCode::kScanUnsafeBody: return "scan-unsafe-body";
    case ErrorCode::kScanTailTargeted: return "scan-tail-targeted";
    case ErrorCode::kScanLiveIndex: return "scan-live-index";
    case ErrorCode::kStoreCorrupt: return "store-corrupt";
    case ErrorCode::kStoreStale: return "store-stale";
    case ErrorCode::kBadContext: return "bad-context";
  }
  return "?";
}

/// Every ErrorCode, for name round-trips (keep in sync with the enum).
inline constexpr ErrorCode kAllErrorCodes[] = {
    ErrorCode::kUnknown,        ErrorCode::kParse,
    ErrorCode::kEncode,         ErrorCode::kBadConfig,
    ErrorCode::kUnknownKernel,  ErrorCode::kInvalidKernel,
    ErrorCode::kCapacity,       ErrorCode::kSimulation,
    ErrorCode::kVerifyMismatch, ErrorCode::kIo,
    ErrorCode::kThreshold,      ErrorCode::kScanNotInnermost,
    ErrorCode::kScanIrregularShape, ErrorCode::kScanMultiExit,
    ErrorCode::kScanNonConstantBound, ErrorCode::kScanUnsafeBody,
    ErrorCode::kScanTailTargeted, ErrorCode::kScanLiveIndex,
    ErrorCode::kStoreCorrupt,   ErrorCode::kStoreStale,
    ErrorCode::kBadContext,
};

/// Inverse of error_code_name(); kUnknown for unrecognized names (serialized
/// artifacts from newer builds degrade gracefully rather than failing).
[[nodiscard]] constexpr ErrorCode parse_error_code(
    std::string_view name) noexcept {
  for (const ErrorCode code : kAllErrorCodes) {
    if (error_code_name(code) == name) return code;
  }
  return ErrorCode::kUnknown;
}

/// A structured error: code + innermost message + outermost-first context
/// chain, with optional source line info (used by the JSON reader).
struct Error {
  ErrorCode code = ErrorCode::kUnknown;
  std::string message;
  std::vector<std::string> context;  ///< outermost frame first
  int line = 0;  ///< 1-based source line when applicable; 0 = not applicable.

  Error() = default;
  Error(ErrorCode code, std::string message, int line = 0)
      : code(code), message(std::move(message)), line(line) {}

  /// Returns this error with `frame` prepended as the new outermost context
  /// (value-chaining style: `return std::move(e).with_context("lowering")`).
  [[nodiscard]] Error with_context(std::string frame) && {
    context.insert(context.begin(), std::move(frame));
    return std::move(*this);
  }
  [[nodiscard]] Error with_context(std::string frame) const& {
    Error copy = *this;
    return std::move(copy).with_context(std::move(frame));
  }

  /// "ctx1: ctx2: line N: message" -- the full trail, outermost first.
  [[nodiscard]] std::string to_string() const {
    std::string out;
    for (const std::string& frame : context) {
      out += frame;
      out += ": ";
    }
    if (line > 0) {
      out += "line " + std::to_string(line) + ": ";
    }
    out += message;
    return out;
  }
};

/// Holds either a value of type T or an Error.
template <typename T>
class [[nodiscard]] Result {
 public:
  using value_type = T;

  // Intentionally implicit so `return value;` and `return error;` both work
  // at call sites (mirrors std::expected).
  // NOLINTNEXTLINE(google-explicit-constructor)
  Result(T value) : data_(std::move(value)) {}
  // NOLINTNEXTLINE(google-explicit-constructor)
  Result(Error error) : data_(std::move(error)) {}

  [[nodiscard]] bool ok() const noexcept {
    return std::holds_alternative<T>(data_);
  }
  explicit operator bool() const noexcept { return ok(); }

  /// Value access. Precondition: ok().
  [[nodiscard]] const T& value() const& {
    ZS_EXPECTS(ok());
    return std::get<T>(data_);
  }
  [[nodiscard]] T& value() & {
    ZS_EXPECTS(ok());
    return std::get<T>(data_);
  }
  [[nodiscard]] T&& value() && {
    ZS_EXPECTS(ok());
    return std::get<T>(std::move(data_));
  }

  /// Error access. Precondition: !ok().
  [[nodiscard]] const Error& error() const& {
    ZS_EXPECTS(!ok());
    return std::get<Error>(data_);
  }
  [[nodiscard]] Error&& error() && {
    ZS_EXPECTS(!ok());
    return std::get<Error>(std::move(data_));
  }

  /// Applies `f` to the value; errors pass through untouched.
  /// `Result<T> -> Result<decltype(f(T))>`.
  template <typename F>
  [[nodiscard]] auto map(F&& f) && -> Result<std::invoke_result_t<F, T&&>> {
    if (!ok()) return std::get<Error>(std::move(data_));
    return std::forward<F>(f)(std::get<T>(std::move(data_)));
  }
  template <typename F>
  [[nodiscard]] auto map(
      F&& f) const& -> Result<std::invoke_result_t<F, const T&>> {
    if (!ok()) return std::get<Error>(data_);
    return std::forward<F>(f)(std::get<T>(data_));
  }

  /// Monadic chain: `f` returns a Result itself; errors short-circuit.
  template <typename F>
  [[nodiscard]] auto and_then(F&& f) && -> std::invoke_result_t<F, T&&> {
    if (!ok()) return std::get<Error>(std::move(data_));
    return std::forward<F>(f)(std::get<T>(std::move(data_)));
  }
  template <typename F>
  [[nodiscard]] auto and_then(
      F&& f) const& -> std::invoke_result_t<F, const T&> {
    if (!ok()) return std::get<Error>(data_);
    return std::forward<F>(f)(std::get<T>(data_));
  }

  /// Adds an outermost context frame to the error, if any.
  [[nodiscard]] Result<T> with_context(std::string frame) && {
    if (ok()) return std::move(*this);
    return std::get<Error>(std::move(data_)).with_context(std::move(frame));
  }

 private:
  std::variant<T, Error> data_;
};

/// Result specialization for operations with no value to return.
template <>
class [[nodiscard]] Result<void> {
 public:
  using value_type = void;

  Result() = default;
  Result(Error error) : error_(std::move(error)), has_error_(true) {}  // NOLINT

  [[nodiscard]] bool ok() const noexcept { return !has_error_; }
  explicit operator bool() const noexcept { return ok(); }

  [[nodiscard]] const Error& error() const& {
    ZS_EXPECTS(!ok());
    return error_;
  }
  [[nodiscard]] Error&& error() && {
    ZS_EXPECTS(!ok());
    return std::move(error_);
  }

  /// Monadic chain for void results: `f` takes no arguments.
  template <typename F>
  [[nodiscard]] auto and_then(F&& f) const& -> std::invoke_result_t<F> {
    if (!ok()) return error_;
    return std::forward<F>(f)();
  }

  [[nodiscard]] Result<void> with_context(std::string frame) && {
    if (ok()) return {};
    return std::move(error_).with_context(std::move(frame));
  }

 private:
  Error error_;
  bool has_error_ = false;
};

}  // namespace zolcsim

#endif  // ZOLCSIM_COMMON_RESULT_HPP
