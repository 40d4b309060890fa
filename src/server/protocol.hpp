// zolcsim-serve-v1: the wire protocol of the serve daemon (DESIGN.md
// section 10 is the normative spec).
//
// Framing: every message -- request or reply -- is one frame: a 4-byte
// big-endian unsigned payload length followed by exactly that many bytes of
// UTF-8 JSON. Lengths above kMaxFrameBytes are a framing error (the server
// replies with a typed error and closes the connection, since the stream
// cannot be resynchronized); everything below the cap that fails to parse
// is a *request* error -- the connection survives and the reply is the
// typed error object, so a client bug never kills a long-lived connection.
//
// Requests are strict JSON objects (unknown members rejected, exactly like
// the scenario-suite schema): a "schema" member pinning the protocol
// version, a "type" member naming one of the eight request types, and
// type-specific members. Replies carry the same "schema" plus a "reply"
// member that either echoes the request type or is "error" with the
// Error{code, message, context} triple, so clients branch on
// machine-checkable codes, never message text.
#ifndef ZOLCSIM_SERVER_PROTOCOL_HPP
#define ZOLCSIM_SERVER_PROTOCOL_HPP

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "common/json.hpp"
#include "common/result.hpp"
#include "flow/compiled_unit.hpp"
#include "flow/run.hpp"

namespace zolcsim::server {

/// Protocol version tag; every request and reply carries it verbatim.
inline constexpr std::string_view kServeSchema = "zolcsim-serve-v1";

/// Frame payload cap. Large enough for any suite or rendered report the
/// repo produces (the biggest checked-in artifact is a few hundred KiB);
/// small enough that a corrupt length prefix cannot make the server
/// allocate unbounded memory.
inline constexpr std::size_t kMaxFrameBytes = std::size_t{8} << 20;

/// Bytes of the frame length prefix (big-endian).
inline constexpr std::size_t kFrameHeaderBytes = 4;

/// The eight request types of zolcsim-serve-v1.
enum class RequestType : std::uint8_t {
  kPing,        ///< liveness probe; replies "pong"
  kCompile,     ///< resolve one unit through the warm cache; summary reply
  kRun,         ///< compile + execute one experiment; statistics reply
  kSweep,       ///< run an inline scenario suite; rendered CSV/JSON reply
  kBenchSuite,  ///< run an inline suite; BENCH_<suite>.json artifact reply
  kStoreStat,   ///< inventory of the attached on-disk unit store
  kStats,       ///< aggregate server statistics (requests, cache, latency)
  kShutdown,    ///< begin graceful drain; the daemon exits once idle
};

inline constexpr std::size_t kNumRequestTypes = 8;

/// Wire name of a request type ("ping", "compile", ...).
[[nodiscard]] std::string_view request_type_name(RequestType type);

/// A parsed, validated request. Compile and run members are read through
/// scenario::run_options() and suite grids through the suite parser, the
/// definitions the CLI uses, so the daemon accepts exactly what `zolcsim`
/// accepts locally.
struct Request {
  RequestType type = RequestType::kPing;
  flow::CompileSpec spec;   ///< compile / run: kernel + machine + geometry
  flow::RunPlan plan;       ///< run: config / mode / budgets / tenants
  std::string suite_text;   ///< sweep / bench-suite: suite doc, serialized
  bool json_format = false; ///< sweep: render the report as JSON, not CSV
};

/// Parses and validates one request payload. Errors: kParse (malformed
/// JSON, missing/unsupported "schema", unknown members, wrong member
/// kinds), kBadConfig (unknown request type, a member value its option
/// rejects, such as a zero count or an unknown machine).
[[nodiscard]] Result<Request> parse_request(std::string_view payload);

/// Wraps `payload` in a frame (length prefix + bytes). Precondition:
/// payload.size() <= kMaxFrameBytes.
[[nodiscard]] std::string encode_frame(std::string_view payload);

/// Decodes a frame length prefix (exactly kFrameHeaderBytes bytes).
[[nodiscard]] std::uint32_t decode_frame_length(const unsigned char* header);

/// Renders the typed error reply for `error`.
[[nodiscard]] std::string error_reply(const Error& error);

/// Decodes a reply payload: an "error" reply becomes the carried Error,
/// anything else parses into the returned document. Used by the client.
[[nodiscard]] Result<json::Value> parse_reply(std::string_view payload);

/// Reply member lookup (a missing or non-string member -> kParse).
[[nodiscard]] Result<std::string> reply_string(const json::Value& reply,
                                               std::string_view key);

}  // namespace zolcsim::server

#endif  // ZOLCSIM_SERVER_PROTOCOL_HPP
