#include "server/protocol.hpp"

#include <utility>
#include <vector>

#include "common/contracts.hpp"
#include "scenario/parse.hpp"

namespace zolcsim::server {

namespace {

Error shape_error(std::string msg) {
  return Error{ErrorCode::kParse, std::move(msg)}.with_context(
      "serve request");
}

Error config_error(std::string msg) {
  return Error{ErrorCode::kBadConfig, std::move(msg)}.with_context(
      "serve request");
}

std::string member_error(std::string_view key, std::string_view what) {
  std::string msg = "'";
  msg += key;
  msg += "' must be ";
  msg += what;
  return msg;
}

/// Member as a string; nullopt when absent, error when the wrong kind.
Result<std::optional<std::string>> string_member(const json::Value& object,
                                                 std::string_view key) {
  const json::Value* member = object.find(key);
  if (member == nullptr) return std::optional<std::string>{};
  if (!member->is_string()) {
    return shape_error(member_error(key, "a string"));
  }
  return std::optional<std::string>{member->as_string()};
}

/// Strict schema: every member of `object` must appear in `allowed`.
Result<void> reject_unknown_members(
    const json::Value& object, const std::vector<std::string_view>& allowed) {
  for (const json::Value::Member& member : object.members()) {
    bool known = false;
    for (const std::string_view name : allowed) {
      if (member.first == name) {
        known = true;
        break;
      }
    }
    if (!known) {
      return shape_error("unknown request member '" + member.first + "'");
    }
  }
  return {};
}

/// The kernel and the run_options() members of a compile (run = false) or
/// run request. A member of the wrong JSON kind is a shape error; its text
/// then goes through the option's parser (kBadConfig on a bad value).
Result<void> read_unit_request(const json::Value& root, bool run,
                               Request& request) {
  std::vector<std::string_view> allowed = {"schema", "type", "kernel"};
  for (const scenario::RunOption& option : scenario::run_options()) {
    if (run || !option.run_only) allowed.push_back(option.member);
  }
  if (auto strict = reject_unknown_members(root, allowed); !strict.ok()) {
    return strict;
  }
  auto kernel = string_member(root, "kernel");
  if (!kernel.ok()) return std::move(kernel).error();
  if (!kernel.value() || kernel.value()->empty()) {
    return shape_error("a 'kernel' member is required");
  }
  request.spec.kernel = *kernel.value();
  request.spec.machine = scenario::kDefaultMachine;
  for (const scenario::RunOption& option : scenario::run_options()) {
    const json::Value* member = root.find(option.member);
    if (member == nullptr) continue;
    std::string text;
    if (option.integer) {
      const auto n = member->as_uint();
      if (!n) {
        return shape_error(
            member_error(option.member, "a non-negative integer"));
      }
      text = std::to_string(*n);
    } else if (member->is_string()) {
      text = member->as_string();
    } else {
      return shape_error(member_error(option.member, "a string"));
    }
    auto applied = option.apply(text, request.spec, request.plan);
    if (!applied.ok()) {
      auto named = std::move(applied).with_context(std::string(option.member));
      return std::move(named).with_context("serve request");
    }
  }
  return {};
}

}  // namespace

std::string_view request_type_name(RequestType type) {
  switch (type) {
    case RequestType::kPing: return "ping";
    case RequestType::kCompile: return "compile";
    case RequestType::kRun: return "run";
    case RequestType::kSweep: return "sweep";
    case RequestType::kBenchSuite: return "bench-suite";
    case RequestType::kStats: return "stats";
    case RequestType::kShutdown: return "shutdown";
  }
  return "?";
}

Result<Request> parse_request(std::string_view payload) {
  auto document = json::parse(payload);
  if (!document.ok()) {
    return std::move(document).error().with_context("serve request");
  }
  const json::Value& root = document.value();
  if (!root.is_object()) {
    return shape_error("request must be a JSON object");
  }
  const json::Value* schema = root.find("schema");
  if (schema == nullptr || !schema->is_string()) {
    return shape_error("a string 'schema' member is required");
  }
  if (schema->as_string() != kServeSchema) {
    return shape_error("unsupported schema '" + schema->as_string() +
                       "' (this daemon speaks " + std::string(kServeSchema) +
                       ")");
  }
  const json::Value* type_v = root.find("type");
  if (type_v == nullptr || !type_v->is_string()) {
    return shape_error("a string 'type' member is required");
  }
  const std::string& name = type_v->as_string();

  Request request;
  bool known_type = false;
  for (std::size_t i = 0; i < kNumRequestTypes; ++i) {
    const auto type = static_cast<RequestType>(i);
    if (request_type_name(type) == name) {
      request.type = type;
      known_type = true;
      break;
    }
  }
  if (!known_type) {
    return config_error("unknown request type '" + name + "'");
  }

  switch (request.type) {
    case RequestType::kPing:
    case RequestType::kStats:
    case RequestType::kShutdown: {
      if (auto strict = reject_unknown_members(root, {"schema", "type"});
          !strict.ok()) {
        return std::move(strict).error();
      }
      break;
    }
    case RequestType::kCompile:
    case RequestType::kRun: {
      if (auto unit = read_unit_request(
              root, request.type == RequestType::kRun, request);
          !unit.ok()) {
        return std::move(unit).error();
      }
      break;
    }
    case RequestType::kSweep:
    case RequestType::kBenchSuite: {
      const bool sweep = request.type == RequestType::kSweep;
      if (auto strict = reject_unknown_members(
              root, sweep ? std::vector<std::string_view>{"schema", "type",
                                                          "suite", "format"}
                          : std::vector<std::string_view>{"schema", "type",
                                                          "suite"});
          !strict.ok()) {
        return std::move(strict).error();
      }
      const json::Value* suite = root.find("suite");
      if (suite == nullptr || !suite->is_object()) {
        return shape_error("a 'suite' object member is required");
      }
      request.suite_text = json::serialize(*suite);
      if (sweep) {
        auto format = string_member(root, "format");
        if (!format.ok()) return std::move(format).error();
        if (format.value()) {
          if (*format.value() != "csv" && *format.value() != "json") {
            return config_error("bad 'format' value '" + *format.value() +
                                "' (csv or json)");
          }
          request.json_format = *format.value() == "json";
        }
      }
      break;
    }
  }
  return request;
}

std::string encode_frame(std::string_view payload) {
  ZS_EXPECTS(payload.size() <= kMaxFrameBytes);
  const auto length = static_cast<std::uint32_t>(payload.size());
  std::string frame;
  frame.reserve(kFrameHeaderBytes + payload.size());
  frame.push_back(static_cast<char>((length >> 24) & 0xFF));
  frame.push_back(static_cast<char>((length >> 16) & 0xFF));
  frame.push_back(static_cast<char>((length >> 8) & 0xFF));
  frame.push_back(static_cast<char>(length & 0xFF));
  frame.append(payload);
  return frame;
}

std::uint32_t decode_frame_length(const unsigned char* header) {
  return (static_cast<std::uint32_t>(header[0]) << 24) |
         (static_cast<std::uint32_t>(header[1]) << 16) |
         (static_cast<std::uint32_t>(header[2]) << 8) |
         static_cast<std::uint32_t>(header[3]);
}

std::string error_reply(const Error& error) {
  std::string out = "{\"schema\": \"";
  out += kServeSchema;
  out += "\", \"reply\": \"error\", \"code\": \"";
  out += error_code_name(error.code);
  out += "\", \"message\": \"";
  out += json::escape(error.message);
  out += "\", \"context\": [";
  bool first = true;
  for (const std::string& frame : error.context) {
    if (!first) out += ", ";
    first = false;
    out += '"';
    out += json::escape(frame);
    out += '"';
  }
  out += "]}";
  return out;
}

Result<json::Value> parse_reply(std::string_view payload) {
  auto document = json::parse(payload);
  if (!document.ok()) {
    return std::move(document).error().with_context("serve reply");
  }
  const json::Value& root = document.value();
  const json::Value* reply = root.find("reply");
  if (reply == nullptr || !reply->is_string()) {
    return Error{ErrorCode::kParse,
                 "reply lacks a string 'reply' member"}
        .with_context("serve reply");
  }
  if (reply->as_string() == "error") {
    // Reconstitute the server-side Error so callers branch on the code
    // exactly as they would on a local failure.
    Error error;
    error.code = ErrorCode::kUnknown;
    if (const json::Value* code = root.find("code");
        code != nullptr && code->is_string()) {
      error.code = parse_error_code(code->as_string());
    }
    if (const json::Value* message = root.find("message");
        message != nullptr && message->is_string()) {
      error.message = message->as_string();
    }
    if (const json::Value* context = root.find("context");
        context != nullptr && context->is_array()) {
      for (const json::Value& frame : context->items()) {
        if (frame.is_string()) error.context.push_back(frame.as_string());
      }
    }
    return error;
  }
  return std::move(document).value();
}

Result<std::string> reply_string(const json::Value& reply,
                                 std::string_view key) {
  const json::Value* member = reply.find(key);
  if (member == nullptr || !member->is_string()) {
    std::string msg = "reply lacks a string '";
    msg += key;
    msg += "' member";
    return Error{ErrorCode::kParse, std::move(msg)}.with_context(
        "serve reply");
  }
  return member->as_string();
}

}  // namespace zolcsim::server
