// Protocol robustness of the serve daemon: every malformed frame --
// oversized length prefix, truncated payload, invalid JSON, unknown request
// type, wrong schema version, unknown members -- produces a typed error
// reply and never kills the daemon, and a fixed-seed fuzz loop hammers the
// parser with random framed payloads to prove the connection (and the
// process) survive arbitrary garbage.
#include <gtest/gtest.h>
#include <unistd.h>

#include <optional>
#include <random>
#include <string>

#include "server/client.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"

namespace zolcsim::server {
namespace {

class ServerProtoTest : public testing::Test {
 protected:
  void SetUp() override {
    socket_path_ = std::string(testing::TempDir()) + "zolcsim_proto_" +
                   std::to_string(::getpid()) + ".sock";
    ServeOptions options;
    options.socket_path = socket_path_;
    options.workers = 2;
    options.idle_timeout_ms = 5'000;
    daemon_.emplace(std::move(options));
    auto started = daemon_->start();
    ASSERT_TRUE(started.ok()) << started.error().to_string();
  }

  void TearDown() override {
    daemon_->begin_drain();
    daemon_->wait();
  }

  Client connect_ok() {
    auto client = Client::connect(socket_path_);
    EXPECT_TRUE(client.ok());
    return std::move(client).value();
  }

  /// The daemon must still answer a ping on a fresh connection -- the
  /// after-every-abuse liveness check.
  void expect_daemon_alive() {
    Client probe = connect_ok();
    auto pong = probe.call(simple_request(RequestType::kPing));
    ASSERT_TRUE(pong.ok()) << pong.error().to_string();
    auto reply = reply_string(pong.value(), "reply");
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply.value(), "pong");
  }

  std::string socket_path_;
  std::optional<Server> daemon_;
};

TEST_F(ServerProtoTest, OversizedLengthPrefixGetsTypedErrorThenClose) {
  Client client = connect_ok();
  // A length prefix beyond kMaxFrameBytes cannot be resynchronized: the
  // daemon replies with the violation, then drops the connection.
  const unsigned char header[kFrameHeaderBytes] = {0xFF, 0xFF, 0xFF, 0xFF};
  ASSERT_TRUE(client
                  .send_bytes(std::string_view(
                      reinterpret_cast<const char*>(header), sizeof(header)))
                  .ok());
  auto payload = client.read_reply(5'000);
  ASSERT_TRUE(payload.ok()) << payload.error().to_string();
  auto decoded = parse_reply(payload.value());
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error().code, ErrorCode::kParse);
  EXPECT_NE(decoded.error().message.find("exceeds"), std::string::npos)
      << decoded.error().message;
  // The connection is gone afterwards.
  auto second = client.read_reply(2'000);
  EXPECT_FALSE(second.ok());
  expect_daemon_alive();
}

TEST_F(ServerProtoTest, TruncatedPayloadGetsTypedError) {
  Client client = connect_ok();
  // Promise 64 bytes, deliver 10, then half-close: the daemon sees EOF
  // mid-frame and still sends the typed error before closing.
  const std::string frame = encode_frame(std::string(64, '{'));
  ASSERT_TRUE(client.send_bytes(frame.substr(0, kFrameHeaderBytes + 10)).ok());
  client.shutdown_write();
  auto payload = client.read_reply(5'000);
  ASSERT_TRUE(payload.ok()) << payload.error().to_string();
  auto decoded = parse_reply(payload.value());
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error().code, ErrorCode::kParse);
  EXPECT_NE(decoded.error().message.find("truncated"), std::string::npos)
      << decoded.error().message;
  expect_daemon_alive();
}

TEST_F(ServerProtoTest, InvalidJsonKeepsTheConnectionAlive) {
  Client client = connect_ok();
  auto reply = client.call("{\"schema\": ");
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.error().code, ErrorCode::kParse);
  // The framing stayed synchronized, so the very same connection serves
  // the next (valid) request.
  auto pong = client.call(simple_request(RequestType::kPing));
  ASSERT_TRUE(pong.ok()) << pong.error().to_string();
}

TEST_F(ServerProtoTest, UnknownRequestTypeIsBadConfig) {
  Client client = connect_ok();
  auto reply = client.call(
      R"({"schema": "zolcsim-serve-v1", "type": "frobnicate"})");
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.error().code, ErrorCode::kBadConfig);
  EXPECT_NE(reply.error().message.find("frobnicate"), std::string::npos);
  expect_daemon_alive();
}

TEST_F(ServerProtoTest, WrongSchemaVersionIsRejected) {
  Client client = connect_ok();
  auto reply =
      client.call(R"({"schema": "zolcsim-serve-v0", "type": "ping"})");
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.error().code, ErrorCode::kParse);
  EXPECT_NE(reply.error().message.find("zolcsim-serve-v0"),
            std::string::npos);
  expect_daemon_alive();
}

TEST_F(ServerProtoTest, UnknownMembersAreRejected) {
  Client client = connect_ok();
  auto reply = client.call(
      R"({"schema": "zolcsim-serve-v1", "type": "ping", "extra": 1})");
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.error().code, ErrorCode::kParse);
  EXPECT_NE(reply.error().message.find("unknown request member"),
            std::string::npos);
  // Retired run members are unknown too: runs always fetch through the
  // unit's code image, and contexts are never serialized.
  for (const char* retired :
       {R"( "predecode": false})", R"( "preempt_serialize": true})"}) {
    auto run = client.call(
        std::string(R"({"schema": "zolcsim-serve-v1", "type": "run",)"
                    R"( "kernel": "dotprod",)") +
        retired);
    ASSERT_FALSE(run.ok()) << retired;
    EXPECT_EQ(run.error().code, ErrorCode::kParse) << retired;
    EXPECT_NE(run.error().message.find("unknown request member"),
              std::string::npos)
        << retired;
  }
}

TEST_F(ServerProtoTest, BadAxisValuesAreBadConfig) {
  Client client = connect_ok();
  auto reply = client.call(
      R"({"schema": "zolcsim-serve-v1", "type": "compile",)"
      R"( "kernel": "dotprod", "machine": "NotAMachine"})");
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.error().code, ErrorCode::kBadConfig);
}

TEST_F(ServerProtoTest, RangeErrorsAreBadConfig) {
  // DESIGN 10.3: a numeric member that is not a non-negative integer is a
  // shape error; an integer the option rejects is bad content.
  Client client = connect_ok();
  const auto run_code = [&client](const std::string& member,
                                  const std::string& value) {
    auto reply = client.call(
        R"({"schema": "zolcsim-serve-v1", "type": "run",)"
        R"( "kernel": "dotprod", "mode": "iss", ")" +
        member + "\": " + value + "}");
    return reply.ok() ? ErrorCode::kUnknown : reply.error().code;
  };
  for (const char* member : {"max_cycles", "tenants"}) {
    SCOPED_TRACE(member);
    for (const char* shape : {"-1", "1.5", "\"7\"", "true"}) {
      EXPECT_EQ(run_code(member, shape), ErrorCode::kParse) << shape;
    }
    EXPECT_EQ(run_code(member, "0"), ErrorCode::kBadConfig);
  }
  EXPECT_EQ(run_code("tenants", "65"), ErrorCode::kBadConfig);
  // compile takes machine and geometry only: a run option is unknown.
  auto compile = client.call(
      R"({"schema": "zolcsim-serve-v1", "type": "compile",)"
      R"( "kernel": "dotprod", "mode": "iss"})");
  ASSERT_FALSE(compile.ok());
  EXPECT_EQ(compile.error().code, ErrorCode::kParse);
  EXPECT_NE(compile.error().message.find("unknown request member"),
            std::string::npos);
  expect_daemon_alive();
}

TEST_F(ServerProtoTest, EmptyFrameIsAParseError) {
  Client client = connect_ok();
  auto reply = client.call("");
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.error().code, ErrorCode::kParse);
  auto pong = client.call(simple_request(RequestType::kPing));
  ASSERT_TRUE(pong.ok());
}

TEST_F(ServerProtoTest, FuzzedFramedPayloadsNeverKillTheDaemon) {
  // Fixed seed: the same 300 garbage payloads every run. Framed garbage
  // keeps the stream synchronized, so one connection must survive all of
  // it and every reply must be a well-formed typed error.
  std::mt19937 rng(0x5eed);
  std::uniform_int_distribution<int> length(0, 192);
  std::uniform_int_distribution<int> byte(0, 255);
  Client client = connect_ok();
  for (int i = 0; i < 300; ++i) {
    std::string payload(static_cast<std::size_t>(length(rng)), '\0');
    for (char& c : payload) c = static_cast<char>(byte(rng));
    auto raw = client.call_raw(payload, 10'000);
    ASSERT_TRUE(raw.ok()) << "iteration " << i << ": "
                          << raw.error().to_string();
    auto decoded = parse_reply(raw.value());
    ASSERT_FALSE(decoded.ok()) << "iteration " << i << " was accepted";
    EXPECT_TRUE(decoded.error().code == ErrorCode::kParse ||
                decoded.error().code == ErrorCode::kBadConfig)
        << "iteration " << i << ": " << decoded.error().to_string();
  }
  auto pong = client.call(simple_request(RequestType::kPing));
  ASSERT_TRUE(pong.ok()) << pong.error().to_string();
  const ServerStats stats = daemon_->stats();
  EXPECT_GE(stats.errors, 300u);
}

}  // namespace
}  // namespace zolcsim::server
