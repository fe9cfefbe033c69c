#include "serve/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <sstream>
#include <utility>

#include "common/require.hpp"

namespace unp::serve {

namespace {

[[noreturn]] void fail_errno(const char* what) {
  throw ContractViolation(std::string("unp_serve: ") + what + ": " +
                          std::strerror(errno));
}

/// Write all of `data`, riding out short writes; MSG_NOSIGNAL so a client
/// that hung up kills the connection, not the server process.
bool send_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// Split "swap P [P...]" payload into paths (any run of spaces separates).
std::vector<std::string> split_paths(const std::string& payload) {
  std::vector<std::string> paths;
  std::istringstream in(payload);
  std::string token;
  while (in >> token) paths.push_back(std::move(token));
  return paths;
}

std::shared_ptr<const store::StoreHandle> open_any(
    const std::vector<std::string>& paths) {
  UNP_REQUIRE(!paths.empty());
  return paths.size() == 1 ? store::StoreHandle::open(paths.front())
                           : store::StoreHandle::open_partitioned(paths);
}

}  // namespace

std::string frame_response(bool ok, const std::string& body) {
  return (ok ? "OK " : "ERR ") + std::to_string(body.size()) + "\n" + body;
}

Server::Server(Config config, RenderFn render)
    : config_(std::move(config)),
      render_(std::move(render)),
      cache_(config_.cache_capacity) {
  UNP_REQUIRE(config_.workers >= 1);
  UNP_REQUIRE(render_ != nullptr);
}

Server::~Server() { stop(); }

void Server::start() {
  UNP_REQUIRE(!running_.load());
  {
    std::lock_guard<std::mutex> lock(store_mutex_);
    handle_ = open_any(config_.store_paths);
    generation_ = 1;
  }

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) fail_errno("socket");
  const int one = 1;
  (void)::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(config_.port);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0)
    fail_errno("bind");
  if (::listen(listen_fd_, 64) != 0) fail_errno("listen");

  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) !=
      0)
    fail_errno("getsockname");
  port_ = ntohs(bound.sin_port);

  running_.store(true);
  workers_.reserve(config_.workers);
  for (std::size_t i = 0; i < config_.workers; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

void Server::wait() {
  std::unique_lock<std::mutex> lock(shutdown_mutex_);
  shutdown_cv_.wait(lock, [this] { return shutdown_requested_; });
}

void Server::request_shutdown() {
  {
    std::lock_guard<std::mutex> lock(shutdown_mutex_);
    shutdown_requested_ = true;
  }
  shutdown_cv_.notify_all();
}

void Server::stop() {
  if (listen_fd_ < 0) return;
  running_.store(false);
  // Unblocks every worker parked in accept(); workers mid-connection notice
  // running_ on their next receive-timeout tick.
  (void)::shutdown(listen_fd_, SHUT_RDWR);
  for (std::thread& t : workers_) t.join();
  workers_.clear();
  (void)::close(listen_fd_);
  listen_fd_ = -1;
  request_shutdown();  // release wait()ers even when stop() came first
}

Server::Stats Server::stats() const {
  Stats s;
  {
    std::lock_guard<std::mutex> lock(store_mutex_);
    s.generation = generation_;
  }
  s.queries = queries_.load();
  s.cache = cache_.counters();
  return s;
}

void Server::swap_store(const std::vector<std::string>& paths) {
  // Open (and fully validate) the replacement before touching shared state:
  // a failed swap leaves the current store serving.
  std::shared_ptr<const store::StoreHandle> next = open_any(paths);
  std::uint64_t generation = 0;
  {
    std::lock_guard<std::mutex> lock(store_mutex_);
    handle_ = std::move(next);
    generation = ++generation_;
  }
  cache_.invalidate(generation);
}

Server::Snapshot Server::snapshot() const {
  std::lock_guard<std::mutex> lock(store_mutex_);
  return Snapshot{handle_, generation_};
}

void Server::worker_loop() {
  while (running_.load()) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listen socket shut down (or unrecoverable) => exit worker
    }
    // Bounded receive blocking so stop() never waits on an idle client.
    timeval tv{};
    tv.tv_usec = 200 * 1000;
    (void)::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    serve_connection(fd);
    (void)::close(fd);
  }
}

void Server::serve_connection(int fd) {
  // `pending` holds received bytes not yet consumed as lines.  Each recv
  // searches only its own bytes for newlines (the prefix before them is
  // known to hold none) and consumed lines are dropped once per recv, so a
  // connection's cost stays linear in its bytes.
  std::string pending;
  char buf[4096];
  auto reject_long_line = [&] {
    (void)send_all(fd, frame_response(false,
                                      "request line longer than " +
                                          std::to_string(kMaxRequestLine) +
                                          " bytes"));
    (void)::shutdown(fd, SHUT_WR);
  };
  while (true) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n > 0) {
      std::size_t from = pending.size();
      pending.append(buf, static_cast<std::size_t>(n));
      std::size_t start = 0;
      std::size_t newline = 0;
      while ((newline = pending.find('\n', from)) != std::string::npos) {
        if (newline - start > kMaxRequestLine) {
          reject_long_line();
          return;
        }
        std::string line = pending.substr(start, newline - start);
        start = from = newline + 1;
        if (!line.empty() && line.back() == '\r') line.pop_back();
        if (line.empty()) continue;
        if (!send_all(fd, handle_line(line))) return;
      }
      pending.erase(0, start);
      if (pending.size() > kMaxRequestLine) {
        reject_long_line();
        return;
      }
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
      if (!running_.load()) return;
      continue;
    }
    return;  // EOF or hard error
  }
}

std::string Server::handle_line(const std::string& line) {
  if (line == "ping") return frame_response(true, "pong\n");

  if (line == "stats") {
    const Stats s = stats();
    std::string body;
    body += "generation " + std::to_string(s.generation) + "\n";
    body += "queries " + std::to_string(s.queries) + "\n";
    body += "cache_hits " + std::to_string(s.cache.hits) + "\n";
    body += "cache_misses " + std::to_string(s.cache.misses) + "\n";
    body += "cache_entries " + std::to_string(s.cache.entries) + "\n";
    return frame_response(true, body);
  }

  if (line == "shutdown") {
    request_shutdown();
    return frame_response(true, "bye\n");
  }

  if (line.rfind("swap ", 0) == 0) {
    const std::vector<std::string> paths = split_paths(line.substr(5));
    if (paths.empty())
      return frame_response(false, "swap: needs at least one store path");
    try {
      swap_store(paths);
    } catch (const ContractViolation& e) {
      return frame_response(false, e.what());
    }
    std::lock_guard<std::mutex> lock(store_mutex_);
    return frame_response(
        true, "swapped to generation " + std::to_string(generation_) + "\n");
  }

  // Query path: serve from cache when this exact line already rendered
  // against the current store generation, else render and memoize.
  const Snapshot snap = snapshot();
  queries_.fetch_add(1);
  if (auto hit = cache_.get(snap.generation, line))
    return frame_response(true, *hit);
  std::string body;
  try {
    body = render_(line, store::StoreReader(snap.handle));
  } catch (const ContractViolation& e) {
    return frame_response(false, e.what());
  }
  cache_.put(snap.generation, line, body);
  return frame_response(true, std::move(body));
}

// --- client helpers --------------------------------------------------------

int connect_local(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) fail_errno("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    const int saved = errno;
    (void)::close(fd);
    errno = saved;
    fail_errno("connect");
  }
  return fd;
}

namespace {

/// Read exactly `want` more bytes into `data` (which may already hold a
/// prefix); false on EOF/error.
bool recv_exact(int fd, std::string& data, std::size_t want) {
  char buf[4096];
  while (data.size() < want) {
    const ssize_t n = ::recv(
        fd, buf, std::min(sizeof buf, want - data.size()), 0);
    if (n > 0) {
      data.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

}  // namespace

Response roundtrip(int fd, const std::string& line) {
  UNP_REQUIRE(line.find('\n') == std::string::npos);
  if (!send_all(fd, line + "\n")) fail_errno("send");

  // Header: "OK <len>\n" / "ERR <len>\n", read byte-wise up to the newline.
  std::string header;
  char c = 0;
  while (true) {
    const ssize_t n = ::recv(fd, &c, 1, 0);
    if (n == 1) {
      if (c == '\n') break;
      header.push_back(c);
      UNP_REQUIRE(header.size() < 64);  // a frame header is tiny
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    throw ContractViolation("unp_serve: connection closed mid-response");
  }

  Response r;
  std::size_t len_at = 0;
  if (header.rfind("OK ", 0) == 0) {
    r.ok = true;
    len_at = 3;
  } else if (header.rfind("ERR ", 0) == 0) {
    r.ok = false;
    len_at = 4;
  } else {
    throw ContractViolation("unp_serve: malformed response header '" + header +
                            "'");
  }
  const std::size_t len = std::stoull(header.substr(len_at));
  if (!recv_exact(fd, r.body, len))
    throw ContractViolation("unp_serve: short response body");
  return r;
}

}  // namespace unp::serve
