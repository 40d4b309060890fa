#include "server/server.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "common/strings.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"

namespace zolcsim::server {

namespace {

/// Poll slice: the granularity at which blocked reads notice the idle
/// timeout and the drain flag. Short enough for responsive shutdown, long
/// enough to cost nothing.
constexpr int kPollSliceMs = 50;

/// Writes the whole frame; false when the peer is gone (EPIPE et al).
bool write_all(int fd, std::string_view bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

bool send_reply(int fd, std::string_view payload) {
  return write_all(fd, encode_frame(payload));
}

std::string percentile_object(const LogHistogram& histogram, int digits) {
  return "{\"p50\": " + format_fixed(histogram.percentile(0.50), digits) +
         ", \"p90\": " + format_fixed(histogram.percentile(0.90), digits) +
         ", \"p99\": " + format_fixed(histogram.percentile(0.99), digits) +
         ", \"samples\": " + std::to_string(histogram.samples()) + "}";
}

std::string reply_head(std::string_view reply) {
  std::string out = "{\"schema\": \"";
  out += kServeSchema;
  out += "\", \"reply\": \"";
  out += reply;
  out += "\"";
  return out;
}

/// The shared warm-state counters of a sweep/bench reply: what this request
/// compiled vs reused. These are the numbers the warm-serving story is
/// measured by (a second identical request must report zero compiles).
std::string counters_members(const harness::SweepReport& report) {
  return ", \"cache\": {\"hits\": " +
         std::to_string(report.compile_cache_hits) +
         ", \"misses\": " + std::to_string(report.compile_cache_misses) +
         ", \"compiles\": " + std::to_string(report.compile_cache_compiles) +
         "}, \"prepares\": {\"image_resets\": " +
         std::to_string(report.image_resets) + "}";
}

}  // namespace

Server::Server(ServeOptions options)
    : options_(std::move(options)) {}

Server::~Server() {
  begin_drain();
  wait();
}

Result<void> Server::start() {
  if (options_.socket_path.empty()) {
    return Error{ErrorCode::kBadConfig, "serve requires a socket path"};
  }
  if (options_.workers == 0) {
    return Error{ErrorCode::kBadConfig, "serve requires at least one worker"};
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (options_.socket_path.size() >= sizeof(addr.sun_path)) {
    return Error{ErrorCode::kBadConfig,
                 "socket path '" + options_.socket_path + "' exceeds " +
                     std::to_string(sizeof(addr.sun_path) - 1) + " bytes"};
  }
  std::memcpy(addr.sun_path, options_.socket_path.c_str(),
              options_.socket_path.size() + 1);

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    return Error{ErrorCode::kIo,
                 std::string("socket: ") + std::strerror(errno)};
  }
  // The daemon owns the path: a leftover file from a crashed predecessor
  // would otherwise wedge every restart on EADDRINUSE.
  ::unlink(options_.socket_path.c_str());
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    const int bind_errno = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Error{ErrorCode::kIo, "bind '" + options_.socket_path +
                                     "': " + std::strerror(bind_errno)};
  }
  if (::listen(listen_fd_, 128) != 0) {
    const int listen_errno = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(options_.socket_path.c_str());
    return Error{ErrorCode::kIo,
                 std::string("listen: ") + std::strerror(listen_errno)};
  }

  started_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this] { accept_loop(); });
  workers_.reserve(options_.workers);
  for (unsigned i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  return {};
}

void Server::begin_drain() {
  draining_.store(true, std::memory_order_release);
  queue_cv_.notify_all();
}

void Server::wait() {
  if (!started_.load(std::memory_order_acquire)) return;
  if (accept_thread_.joinable()) accept_thread_.join();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

ServerStats Server::stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

void Server::accept_loop() {
  while (!draining()) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, kPollSliceMs);
    if (ready <= 0) continue;  // timeout or EINTR; re-check the drain flag
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      pending_connections_.push_back(fd);
    }
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.connections;
    }
    queue_cv_.notify_one();
  }
  ::close(listen_fd_);
  listen_fd_ = -1;
  ::unlink(options_.socket_path.c_str());
}

void Server::worker_loop() {
  for (;;) {
    int fd = -1;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock, [this] {
        return !pending_connections_.empty() || draining();
      });
      if (!pending_connections_.empty()) {
        fd = pending_connections_.front();
        pending_connections_.pop_front();
      } else if (draining()) {
        return;
      }
    }
    if (fd >= 0) serve_connection(fd);
  }
}

void Server::serve_connection(int fd) {
  for (;;) {
    std::string payload;
    if (read_frame(fd, payload) != ReadStatus::kFrame) break;

    auto request = parse_request(payload);
    if (!request.ok()) {
      {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.errors;
      }
      // A malformed request never kills the connection (let alone the
      // daemon): the framing is still synchronized, so reply and carry on.
      if (!send_reply(fd, error_reply(request.error()))) break;
      continue;
    }

    bool drain_after_reply = false;
    const auto started = std::chrono::steady_clock::now();
    auto reply = handle(request.value(), drain_after_reply);
    const double wall_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - started)
            .count();
    if (!reply.ok()) {
      {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.errors;
      }
      if (!send_reply(fd, error_reply(reply.error()))) break;
      continue;
    }
    record_request(request.value().type, wall_ms);
    const bool sent = send_reply(fd, reply.value());
    if (drain_after_reply) {
      begin_drain();
      break;
    }
    if (!sent) break;
  }
  ::close(fd);
}

Server::ReadStatus Server::read_frame(int fd, std::string& payload) {
  unsigned char header[kFrameHeaderBytes];
  std::size_t have = 0;
  std::size_t want = kFrameHeaderBytes;
  unsigned char* dest = header;
  bool reading_header = true;
  std::uint32_t length = 0;
  int idle_ms = 0;

  while (have < want) {
    // Between frames a drain closes the connection immediately; once a
    // frame has started we finish reading it (and reply) first.
    if (draining() && reading_header && have == 0) return ReadStatus::kClose;
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, kPollSliceMs);
    if (ready == 0) {
      idle_ms += kPollSliceMs;
      if (idle_ms < static_cast<int>(options_.idle_timeout_ms)) continue;
      if (reading_header && have == 0) return ReadStatus::kClose;
      // Mid-frame silence: the peer promised more bytes than it sent.
      (void)send_reply(fd, error_reply(Error{
                               ErrorCode::kParse,
                               "truncated frame (timed out mid-frame)"}));
      return ReadStatus::kClose;
    }
    if (ready < 0) {
      if (errno == EINTR) continue;
      return ReadStatus::kClose;
    }
    const ssize_t n = ::recv(fd, dest + have, want - have, 0);
    if (n == 0) {
      if (reading_header && have == 0) return ReadStatus::kClose;
      // EOF inside a frame: typed error on the (possibly half-closed)
      // socket, best effort -- the client may still be reading.
      (void)send_reply(
          fd, error_reply(Error{ErrorCode::kParse,
                                "truncated frame (connection closed after " +
                                    std::to_string(have) + " of " +
                                    std::to_string(want) + " bytes)"}));
      return ReadStatus::kClose;
    }
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN) continue;
      return ReadStatus::kClose;
    }
    idle_ms = 0;
    have += static_cast<std::size_t>(n);
    if (reading_header && have == kFrameHeaderBytes) {
      length = decode_frame_length(header);
      if (length > kMaxFrameBytes) {
        // The stream cannot be resynchronized past a bogus length; reply
        // with the violation and drop the connection.
        (void)send_reply(
            fd, error_reply(Error{
                    ErrorCode::kParse,
                    "frame length " + std::to_string(length) +
                        " exceeds the " + std::to_string(kMaxFrameBytes) +
                        "-byte cap"}));
        return ReadStatus::kClose;
      }
      payload.assign(length, '\0');
      dest = reinterpret_cast<unsigned char*>(payload.data());
      have = 0;
      want = length;
      reading_header = false;
      if (length == 0) break;
    }
  }
  return ReadStatus::kFrame;
}

Result<std::string> Server::handle(const Request& request,
                                   bool& drain_after_reply) {
  switch (request.type) {
    case RequestType::kPing:
      return reply_head("pong") + "}";
    case RequestType::kCompile:
      return handle_compile(request);
    case RequestType::kRun:
      return handle_run(request);
    case RequestType::kSweep:
    case RequestType::kBenchSuite:
      return handle_suite(request);
    case RequestType::kStats:
      return handle_stats();
    case RequestType::kShutdown:
      drain_after_reply = true;
      return reply_head("shutdown") + ", \"draining\": true}";
  }
  return Error{ErrorCode::kUnknown, "unhandled request type"};
}

Result<std::string> Server::handle_compile(const Request& request) {
  auto unit = cache_.get_or_compile(request.spec);
  if (!unit.ok()) return std::move(unit).error();
  const flow::CompiledUnit& u = *unit.value();
  std::string out = reply_head("compile");
  out += ", \"kernel\": \"" + json::escape(u.spec().kernel) + "\"";
  out += ", \"machine\": \"";
  out += codegen::machine_name(u.machine());
  out += "\", \"geometry\": \"" + u.geometry().label() + "\"";
  out += ", \"code_words\": " + std::to_string(u.program().size_words());
  out += ", \"init_instructions\": " +
         std::to_string(u.program().init_instructions);
  out += ", \"hw_loops\": " + std::to_string(u.program().hw_loop_count);
  out += ", \"sw_loops\": " + std::to_string(u.program().sw_loop_count);
  out += ", \"scan_candidates\": " + std::to_string(u.scan().candidates.size());
  out += ", \"key\": \"" + json::escape(u.spec().key()) + "\"}";
  return out;
}

Result<std::string> Server::handle_run(const Request& request) {
  auto unit = cache_.get_or_compile(request.spec);
  if (!unit.ok()) return std::move(unit).error();
  auto result = flow::run(*unit.value(), request.plan);
  if (!result.ok()) return std::move(result).error();
  const flow::ExperimentResult& r = result.value();
  std::string out = reply_head("run");
  out += ", \"kernel\": \"" + json::escape(r.kernel) + "\"";
  out += ", \"machine\": \"";
  out += codegen::machine_name(r.machine);
  out += "\", \"geometry\": \"" + r.geometry.label() + "\"";
  out += ", \"config\": \"" +
         json::escape(harness::config_name(request.plan.config)) + "\"";
  out += ", \"mode\": \"";
  out += flow::mode_name(r.mode);
  out += "\", \"cycles\": " + std::to_string(r.stats.cycles);
  out += ", \"instructions\": " + std::to_string(r.stats.instructions);
  out += ", \"continue_events\": " +
         std::to_string(r.zolc_stats.continue_events);
  out += ", \"done_events\": " + std::to_string(r.zolc_stats.done_events);
  out += ", \"table_writes\": " + std::to_string(r.zolc_stats.table_writes);
  out += ", \"tenants\": " + std::to_string(r.tenants);
  out += ", \"ctx_switches\": " + std::to_string(r.context_switches);
  out += ", \"ctx_switch_cycles\": " +
         std::to_string(r.context_switch_cycles) + "}";
  return out;
}

Result<std::string> Server::handle_suite(const Request& request) {
  auto suite = scenario::parse_suite(request.suite_text, "serve request");
  if (!suite.ok()) return std::move(suite).error();
  scenario::RunOptions options;
  options.threads = options_.sweep_threads;
  auto outcome = scenario::run_suite(suite.value(), cache_, options);
  if (!outcome.ok()) return std::move(outcome).error();
  const scenario::SuiteOutcome& done = outcome.value();
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    stats_.image_resets += done.report.image_resets;
    if (done.mips > 0.0) mips_.record(done.mips);
  }

  const bool bench = request.type == RequestType::kBenchSuite;
  std::string out = reply_head(bench ? "bench-suite" : "sweep");
  out += ", \"suite\": \"" + json::escape(done.suite.name) + "\"";
  out += counters_members(done.report);
  out += std::string(", \"golden\": \"") +
         (done.golden_checked ? "match" : "unchecked") + "\"";
  out += ", \"cells\": " + std::to_string(done.report.cells.size());
  out += ", \"wall_seconds\": " + format_fixed(done.wall_seconds, 4);
  out += ", \"mips\": " + format_fixed(done.mips, 2);
  if (bench) {
    out += ", \"artifact_name\": \"" +
           json::escape(scenario::bench_artifact_name(done.suite)) + "\"";
    out += ", \"artifact\": \"" +
           json::escape(scenario::bench_artifact_json(done)) + "\"";
  } else {
    out += std::string(", \"format\": \"") +
           (request.json_format ? "json" : "csv") + "\"";
    out += ", \"output\": \"" +
           json::escape(request.json_format ? done.report.to_json()
                                            : done.csv) +
           "\"";
  }
  out += "}";
  return out;
}

std::string Server::handle_stats() {
  ServerStats snapshot;
  LogHistogram wall_ms;
  LogHistogram mips;
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    snapshot = stats_;
    wall_ms = wall_ms_;
    mips = mips_;
  }
  const flow::CompileCache::Stats cache = cache_.stats();
  const std::size_t lookups = cache.hits + cache.misses;
  const double hit_rate =
      lookups == 0 ? 0.0
                   : static_cast<double>(cache.hits) /
                         static_cast<double>(lookups);

  std::string out = reply_head("stats");
  out += ", \"requests\": " + std::to_string(snapshot.requests);
  out += ", \"connections\": " + std::to_string(snapshot.connections);
  out += ", \"errors\": " + std::to_string(snapshot.errors);
  out += ", \"by_type\": {";
  bool first = true;
  for (std::size_t i = 0; i < kNumRequestTypes; ++i) {
    if (!first) out += ", ";
    first = false;
    out += "\"";
    out += request_type_name(static_cast<RequestType>(i));
    out += "\": " + std::to_string(snapshot.by_type[i]);
  }
  out += "}";
  out += ", \"cache\": {\"hits\": " + std::to_string(cache.hits) +
         ", \"misses\": " + std::to_string(cache.misses) +
         ", \"compiles\": " + std::to_string(cache.compiles) +
         ", \"hit_rate\": " + format_fixed(hit_rate, 3) +
         ", \"evictions\": " + std::to_string(cache.evictions) +
         ", \"resident_bytes\": " + std::to_string(cache.resident_bytes) +
         "}";
  out += ", \"prepares\": {\"image_resets\": " +
         std::to_string(snapshot.image_resets) + "}";
  out += ", \"wall_ms\": " + percentile_object(wall_ms, 3);
  out += ", \"mips\": " + percentile_object(mips, 2);
  out += ", \"workers\": " + std::to_string(options_.workers);
  out += ", \"draining\": ";
  out += draining() ? "true" : "false";
  out += "}";
  return out;
}

void Server::record_request(RequestType type, double wall_ms) {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  ++stats_.requests;
  ++stats_.by_type[static_cast<std::size_t>(type)];
  wall_ms_.record(wall_ms);
}

}  // namespace zolcsim::server
