// Server: transport, admin lines, store swap, and the shared-reader
// concurrency contract, over a real loopback socket.
//
// The render function used here is deliberately tiny — "count matching
// rows" — because these tests own the transport/lifecycle contract; the
// full query-language byte-identity contract lives with the query_render
// tests and the perf_serve gate.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "analysis/extraction.hpp"
#include "common/require.hpp"
#include "common/rng.hpp"
#include "serve/server.hpp"
#include "store/builder.hpp"
#include "store/query_builder.hpp"
#include "store/reader.hpp"

namespace unp::serve {
namespace {

constexpr TimePoint kStart = 1'440'000'000;

/// Write a small store of `n` faults to a temp path and return the path.
std::string write_test_store(const std::string& name, int n,
                             std::uint64_t seed = 11) {
  std::vector<analysis::FaultRecord> faults;
  Xoshiro256 rng(seed);
  for (int i = 0; i < n; ++i) {
    analysis::FaultRecord f;
    f.first_seen = kStart + static_cast<TimePoint>(i) * 10;
    f.last_seen = f.first_seen + 5;
    f.node = cluster::NodeId{(i / 20) % cluster::kStudyBlades,
                             static_cast<int>(rng.next() % 15)};
    f.raw_logs = 1 + rng.next() % 5;
    f.virtual_address = rng.next() % (1ull << 40);
    f.expected = static_cast<Word>(rng.next());
    f.actual = f.expected ^ 1u;
    f.temperature_c = 25.0;
    faults.push_back(f);
  }
  std::sort(faults.begin(), faults.end(),
            [](const analysis::FaultRecord& a, const analysis::FaultRecord& b) {
              return std::tie(a.first_seen, a.node, a.virtual_address) <
                     std::tie(b.first_seen, b.node, b.virtual_address);
            });
  analysis::ExtractionResult extraction;
  extraction.faults = std::move(faults);
  const analysis::ScanProfileSink scan;
  const std::string path = ::testing::TempDir() + name;
  store::write_store(path, extraction, scan, seed);
  return path;
}

/// Minimal deterministic render: a request line is a blank-separated list of
/// "field=value" predicates; the response is the matching row count.
std::string count_render(const std::string& line,
                         const store::StoreReader& reader) {
  store::QueryBuilder builder;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && line[i] == ' ') ++i;
    std::size_t start = i;
    while (i < line.size() && line[i] != ' ') ++i;
    if (i == start) continue;
    const std::string token = line.substr(start, i - start);
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos)
      throw store::QueryError(token, "expects field=value");
    builder.set(token.substr(0, eq), token.substr(eq + 1));
  }
  store::Query query = builder.build();
  query.projection = 0;
  store::ScanStats stats;
  (void)reader.run(query, {}, &stats);
  return std::to_string(stats.rows_matched) + "\n";
}

/// Start a server over `paths` on an ephemeral port, or skip the test when
/// the sandbox forbids loopback sockets.
std::unique_ptr<Server> start_server(const std::vector<std::string>& paths,
                                     std::size_t workers = 4,
                                     std::size_t cache = 64) {
  auto server = std::make_unique<Server>(
      Server::Config{paths, 0, workers, cache}, count_render);
  server->start();
  return server;
}

Response ask(std::uint16_t port, const std::string& line) {
  const int fd = connect_local(port);
  const Response r = roundtrip(fd, line);
  (void)::close(fd);
  return r;
}

TEST(ServeServerTest, PingStatsAndQueriesOverLoopback) {
  const std::string path = write_test_store("serve_basic.unpf", 300);
  std::unique_ptr<Server> server;
  try {
    server = start_server({path});
  } catch (const ContractViolation& e) {
    GTEST_SKIP() << "loopback sockets unavailable: " << e.what();
  }
  const std::uint16_t port = server->port();
  ASSERT_NE(port, 0);

  EXPECT_EQ(ask(port, "ping").body, "pong\n");

  const Response count = ask(port, "since=0");
  EXPECT_TRUE(count.ok);
  EXPECT_EQ(count.body, "300\n");

  const Response blade = ask(port, "blade=0");
  EXPECT_TRUE(blade.ok);
  // Blades rotate every 20 rows across kStudyBlades; with 300 rows blade 0
  // owns rows [0,20).
  EXPECT_EQ(blade.body, "20\n");

  const Response stats = ask(port, "stats");
  EXPECT_TRUE(stats.ok);
  EXPECT_NE(stats.body.find("generation 1\n"), std::string::npos);
  EXPECT_NE(stats.body.find("queries 2\n"), std::string::npos);

  server->stop();
  EXPECT_EQ(std::remove(path.c_str()), 0);
}

TEST(ServeServerTest, RejectedRequestsBecomeErrResponsesNotDeadServers) {
  const std::string path = write_test_store("serve_err.unpf", 50);
  std::unique_ptr<Server> server;
  try {
    server = start_server({path});
  } catch (const ContractViolation& e) {
    GTEST_SKIP() << "loopback sockets unavailable: " << e.what();
  }
  const std::uint16_t port = server->port();

  const Response bad = ask(port, "blade=9999");
  EXPECT_FALSE(bad.ok);
  EXPECT_NE(bad.body.find("blade"), std::string::npos);

  const Response unknown = ask(port, "rack=2");
  EXPECT_FALSE(unknown.ok);

  // The worker survives the rejected requests on the same connection too.
  const int fd = connect_local(port);
  EXPECT_FALSE(roundtrip(fd, "blade=9999").ok);
  const Response after = roundtrip(fd, "blade=1");
  EXPECT_TRUE(after.ok);
  EXPECT_EQ(after.body, "20\n");
  (void)::close(fd);

  server->stop();
  EXPECT_EQ(std::remove(path.c_str()), 0);
}

// A line that never ends must not grow the connection's buffer without
// bound: past Server::kMaxRequestLine bytes the client gets one ERR frame
// and EOF, and the worker (the only one here) goes on serving others.
TEST(ServeServerTest, OverlongRequestLineGetsOneErrAndEof) {
  const std::string path = write_test_store("serve_long_line.unpf", 30);
  std::unique_ptr<Server> server;
  try {
    server = start_server({path}, /*workers=*/1);
  } catch (const ContractViolation& e) {
    GTEST_SKIP() << "loopback sockets unavailable: " << e.what();
  }
  const std::uint16_t port = server->port();

  const int fd = connect_local(port);
  // A server that never answers fails the test instead of hanging it.
  timeval tv{};
  tv.tv_sec = 10;
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv), 0);
  // 1 MiB with no newline.  The server stops reading past the limit and
  // closes with the rest unread, so the send may end early on a reset.
  const std::string flood(std::size_t{1} << 20, 'x');
  std::size_t sent = 0;
  while (sent < flood.size()) {
    const ssize_t n = ::send(fd, flood.data() + sent, flood.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  std::string reply;
  char buf[4096];
  ssize_t n = 0;
  while ((n = ::recv(fd, buf, sizeof buf, 0)) > 0)
    reply.append(buf, static_cast<std::size_t>(n));
  EXPECT_EQ(n, 0) << "expected EOF after the ERR frame";
  (void)::close(fd);
  const std::string message =
      "request line longer than " + std::to_string(Server::kMaxRequestLine) +
      " bytes";
  EXPECT_EQ(reply, frame_response(false, message));

  EXPECT_EQ(ask(port, "ping").body, "pong\n");
  EXPECT_EQ(ask(port, "since=0").body, "30\n");

  server->stop();
  EXPECT_EQ(std::remove(path.c_str()), 0);
}

TEST(ServeServerTest, ConcurrentClientsGetByteIdenticalResponses) {
  const std::string path = write_test_store("serve_conc.unpf", 600);
  std::unique_ptr<Server> server;
  try {
    // Cache off: every response must come from a fresh concurrent scan of
    // the shared handle, not from a memoized body.
    server = start_server({path}, 8, 0);
  } catch (const ContractViolation& e) {
    GTEST_SKIP() << "loopback sockets unavailable: " << e.what();
  }
  const std::uint16_t port = server->port();

  const std::vector<std::string> workload = {
      "since=0", "blade=0", "blade=1", "min-bits=1", "class=single", "soc=3"};
  // Serial oracle first, then 8 threads replaying the same lines.
  std::vector<std::string> expected;
  for (const std::string& line : workload) {
    const Response r = ask(port, line);
    ASSERT_TRUE(r.ok) << line;
    expected.push_back(r.body);
  }

  constexpr int kThreads = 8;
  constexpr int kRounds = 10;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const int fd = connect_local(port);
      for (int r = 0; r < kRounds; ++r) {
        for (std::size_t w = 0; w < workload.size(); ++w) {
          const Response resp = roundtrip(fd, workload[w]);
          if (!resp.ok || resp.body != expected[w])
            ++mismatches[static_cast<std::size_t>(t)];
        }
      }
      (void)::close(fd);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(std::accumulate(mismatches.begin(), mismatches.end(), 0), 0);

  server->stop();
  EXPECT_EQ(std::remove(path.c_str()), 0);
}

TEST(ServeServerTest, SwapServesTheNewStoreAndInvalidatesTheCache) {
  const std::string old_path = write_test_store("serve_old.unpf", 100);
  const std::string new_path = write_test_store("serve_new.unpf", 250, 12);
  std::unique_ptr<Server> server;
  try {
    server = start_server({old_path});
  } catch (const ContractViolation& e) {
    GTEST_SKIP() << "loopback sockets unavailable: " << e.what();
  }
  const std::uint16_t port = server->port();

  EXPECT_EQ(ask(port, "since=0").body, "100\n");
  EXPECT_EQ(ask(port, "since=0").body, "100\n");  // cached
  Server::Stats stats = server->stats();
  EXPECT_EQ(stats.generation, 1u);
  EXPECT_EQ(stats.cache.hits, 1u);
  EXPECT_EQ(stats.cache.entries, 1u);

  const Response swapped = ask(port, "swap " + new_path);
  EXPECT_TRUE(swapped.ok);
  // Same request line, new generation: the stale "100\n" can never hit.
  EXPECT_EQ(ask(port, "since=0").body, "250\n");
  stats = server->stats();
  EXPECT_EQ(stats.generation, 2u);
  EXPECT_EQ(stats.cache.entries, 1u);  // old generation reclaimed

  server->stop();
  EXPECT_EQ(std::remove(old_path.c_str()), 0);
  EXPECT_EQ(std::remove(new_path.c_str()), 0);
}

TEST(ServeServerTest, FailedSwapKeepsTheOldStoreServing) {
  const std::string path = write_test_store("serve_keep.unpf", 80);
  std::unique_ptr<Server> server;
  try {
    server = start_server({path});
  } catch (const ContractViolation& e) {
    GTEST_SKIP() << "loopback sockets unavailable: " << e.what();
  }
  const std::uint16_t port = server->port();

  const Response bad = ask(port, "swap /nonexistent/nowhere.unpf");
  EXPECT_FALSE(bad.ok);
  EXPECT_NE(bad.body.find("/nonexistent/nowhere.unpf"), std::string::npos);
  EXPECT_EQ(server->stats().generation, 1u);
  EXPECT_EQ(ask(port, "since=0").body, "80\n");

  server->stop();
  EXPECT_EQ(std::remove(path.c_str()), 0);
}

TEST(ServeServerTest, ShutdownLineReleasesWait) {
  const std::string path = write_test_store("serve_shutdown.unpf", 10);
  std::unique_ptr<Server> server;
  try {
    server = start_server({path});
  } catch (const ContractViolation& e) {
    GTEST_SKIP() << "loopback sockets unavailable: " << e.what();
  }
  const Response bye = ask(server->port(), "shutdown");
  EXPECT_TRUE(bye.ok);
  server->wait();  // must return because a client asked for shutdown
  server->stop();
  EXPECT_EQ(std::remove(path.c_str()), 0);
}

TEST(ServeServerTest, StartThrowsDecodeErrorForAMissingStore) {
  Server server(Server::Config{{"/nonexistent/no.unpf"}, 0, 2, 0},
                count_render);
  EXPECT_THROW(server.start(), store::DecodeError);
}

TEST(ServeServerTest, FrameResponseRoundTrips) {
  EXPECT_EQ(frame_response(true, "abc"), "OK 3\nabc");
  EXPECT_EQ(frame_response(false, "nope"), "ERR 4\nnope");
  EXPECT_EQ(frame_response(true, ""), "OK 0\n");
}

}  // namespace
}  // namespace unp::serve
