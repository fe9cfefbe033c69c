// unp_serve's transport and store-lifecycle core.
//
// A Server owns one listening TCP socket on 127.0.0.1 and N worker threads
// that accept() on it concurrently; every worker serves whole connections,
// reading newline-terminated request lines and writing length-framed
// responses:
//
//   OK <len>\n<body>     — <len> bytes of rendered response
//   ERR <len>\n<message> — rejected request / render failure
//
// A request line longer than Server::kMaxRequestLine bytes gets one ERR
// frame, then the server closes the connection; each connection buffers at
// most that much of an unfinished line.
//
// All workers share ONE parsed store via shared_ptr<const StoreHandle>:
// requests snapshot the pointer, so scans proceed lock-free against deeply
// immutable bytes while an admin `swap` installs a replacement handle.  A
// monotonically increasing generation number keys the result cache; swap
// bumps it (stale entries can never hit) and invalidates eagerly.
//
// The server knows nothing about the query language: rendering is injected
// as a RenderFn so the transport layer stays free of bench-side report
// dependencies.  Built-in admin lines (handled before RenderFn):
//
//   ping            — liveness probe, body "pong\n"
//   stats           — generation, query count, cache counters
//   swap P [P...]   — reopen the store from path(s), bump generation
//   shutdown        — acknowledge, then release wait()
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/result_cache.hpp"
#include "store/handle.hpp"
#include "store/reader.hpp"

namespace unp::serve {

/// Renders one request line against a read-only view of the current store
/// and returns the complete response body.  Called concurrently from worker
/// threads; must be thread-safe and deterministic (equal line + equal store
/// bytes => equal body, the property the result cache relies on).  Signal a
/// rejected request or render failure by throwing ContractViolation (e.g.
/// store::QueryError, telemetry::DecodeError); the server turns the what()
/// text into an ERR response.
using RenderFn = std::function<std::string(const std::string& line,
                                           const store::StoreReader& reader)>;

class Server {
 public:
  struct Config {
    /// Store to open at start(): one path = StoreHandle::open, several =
    /// open_partitioned.
    std::vector<std::string> store_paths;
    std::uint16_t port = 0;  ///< 0 = ephemeral, read back via port()
    std::size_t workers = 4;
    std::size_t cache_capacity = 256;  ///< 0 disables the result cache
  };

  /// Longest request line served, in bytes (without the newline).  Lines
  /// are short predicate strings; this bounds a connection's line buffer.
  static constexpr std::size_t kMaxRequestLine = 64 * 1024;

  Server(Config config, RenderFn render);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Open the store, bind/listen on 127.0.0.1, and spawn the workers.
  /// Throws ContractViolation on socket failure and DecodeError on an
  /// unreadable/corrupt store.
  void start();

  /// Block until a client sends `shutdown` (or stop() is called).
  void wait();

  /// Unblock and join every worker, close the socket.  Idempotent.
  void stop();

  /// The bound port (the ephemeral one the kernel picked when
  /// Config::port == 0).  Valid after start().
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  struct Stats {
    std::uint64_t generation = 0;
    std::uint64_t queries = 0;  ///< rendered + cache-served request lines
    ResultCache::Counters cache;
  };
  [[nodiscard]] Stats stats() const;

  /// Install the store at `paths` as the new current store: bumps the
  /// generation and invalidates the cache.  In-flight scans keep their
  /// snapshot of the old handle alive.  Throws without switching when the
  /// new store fails to open.
  void swap_store(const std::vector<std::string>& paths);

 private:
  struct Snapshot {
    std::shared_ptr<const store::StoreHandle> handle;
    std::uint64_t generation = 0;
  };
  [[nodiscard]] Snapshot snapshot() const;

  void worker_loop();
  void serve_connection(int fd);
  /// Dispatch one trimmed request line to a framed response.
  [[nodiscard]] std::string handle_line(const std::string& line);
  void request_shutdown();

  Config config_;
  RenderFn render_;
  ResultCache cache_;

  mutable std::mutex store_mutex_;
  std::shared_ptr<const store::StoreHandle> handle_;  ///< guarded by mutex
  std::uint64_t generation_ = 0;                      ///< guarded by mutex

  std::atomic<std::uint64_t> queries_{0};
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::vector<std::thread> workers_;

  std::mutex shutdown_mutex_;
  std::condition_variable shutdown_cv_;
  bool shutdown_requested_ = false;
};

/// Frame a response body for the wire (shared with tests so framing changes
/// cannot drift silently): "OK <len>\n<body>" / "ERR <len>\n<body>".
[[nodiscard]] std::string frame_response(bool ok, const std::string& body);

// --- minimal client (tests, unp_serve --connect, CI smoke) ----------------

struct Response {
  bool ok = false;
  std::string body;
};

/// Connect to 127.0.0.1:`port`; returns the socket fd.  Throws
/// ContractViolation when the connection is refused.
[[nodiscard]] int connect_local(std::uint16_t port);

/// Send one request line over `fd` and read the complete framed response.
/// Throws ContractViolation on a short read or malformed frame.
[[nodiscard]] Response roundtrip(int fd, const std::string& line);

}  // namespace unp::serve
