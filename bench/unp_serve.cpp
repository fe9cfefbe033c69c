// Long-lived query/report server over the UNPF columnar fault store, plus
// the matching workload client.
//
// Server mode:
//
//   unp_serve --store PATH [PATH...] [--port P] [--port-file F]
//             [--workers N] [--cache N]
//
// opens the store once (several paths = one partitioned store), binds
// 127.0.0.1 (--port 0 = ephemeral; the bound port goes to stderr and to
// --port-file for scripts), and answers request lines carrying exactly the
// unp_query predicate/action vocabulary:
//
//   --blade 30 --class multi --count
//   --fig 3
//   --since 1440000000 --until 1440100000 --limit 10
//
// Responses are length-framed ("OK <len>\n<body>"), and each body is
// byte-identical to the stdout of the equivalent unp_query invocation —
// both front ends render through util/query_render.  Admin lines: ping,
// stats, swap PATH..., shutdown.
//
// Client mode:
//
//   unp_serve --connect PORT (--request LINE | --workload FILE)
//             [--threads N] [--repeat K]
//
// replays request lines (--request may repeat; --workload reads one request
// per non-empty, non-# line) against a running server and prints the
// response bodies to stdout in request order regardless of --threads, so
// `cmp` against concatenated unp_query output proves byte-identity.  Exit
// status: 0 when every response is OK, 2 on any ERR or transport failure.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/server.hpp"
#include "store/reader.hpp"
#include "util/cli_args.hpp"
#include "util/query_render.hpp"

namespace {

using namespace unp;

struct Options {
  std::vector<std::string> store_paths;
  long port = 0;
  std::string port_file;
  long workers = 4;
  long cache = 256;

  long connect = -1;  ///< >= 0 selects client mode
  std::vector<std::string> requests;
  std::string workload_path;
  std::size_t threads = 1;
  long repeat = 1;
};

void usage(std::FILE* out) {
  std::fprintf(
      out,
      "usage: unp_serve --store PATH [PATH...] [server options]\n"
      "       unp_serve --connect PORT (--request LINE | --workload FILE)\n"
      "                 [client options]\n"
      "server:\n"
      "  --store PATH...    store file(s); several paths open one\n"
      "                     partitioned store\n"
      "  --port P           listen port (default 0 = ephemeral)\n"
      "  --port-file F      write the bound port to F (for scripts)\n"
      "  --workers N        accept/render threads (default 4)\n"
      "  --cache N          result-cache capacity in responses (default "
      "256;\n"
      "                     0 disables caching)\n"
      "client:\n"
      "  --connect PORT     send requests to 127.0.0.1:PORT\n"
      "  --request LINE     one request line (repeatable)\n"
      "  --workload FILE    request lines from FILE (# starts a comment)\n"
      "  --threads N        client threads (default 1; output stays in\n"
      "                     request order)\n"
      "  --repeat K         replay the request list K times (default 1)\n"
      "requests use the unp_query vocabulary, e.g. '--blade 30 --count';\n"
      "admin lines: ping, stats, swap PATH..., shutdown\n");
}

bool parse_args(int argc, char** argv, Options& opts) {
  const bench::CliParser cli("unp_serve", argc, argv);
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--store") == 0) {
      // Greedy: every following non-flag token is a part path.
      const char* v = cli.next_value(i, "--store");
      if (!v) return false;
      opts.store_paths.emplace_back(v);
      while (i + 1 < argc && argv[i + 1][0] != '-')
        opts.store_paths.emplace_back(argv[++i]);
    } else if (std::strcmp(arg, "--port") == 0) {
      if (!cli.long_in(i, "--port", 0, 65535, opts.port)) return false;
    } else if (std::strcmp(arg, "--port-file") == 0) {
      const char* v = cli.next_value(i, "--port-file");
      if (!v) return false;
      opts.port_file = v;
    } else if (std::strcmp(arg, "--workers") == 0) {
      if (!cli.long_in(i, "--workers", 1, 1024, opts.workers)) return false;
    } else if (std::strcmp(arg, "--cache") == 0) {
      if (!cli.long_in(i, "--cache", 0, 1L << 20, opts.cache)) return false;
    } else if (std::strcmp(arg, "--connect") == 0) {
      if (!cli.long_in(i, "--connect", 1, 65535, opts.connect)) return false;
    } else if (std::strcmp(arg, "--request") == 0) {
      const char* v = cli.next_value(i, "--request");
      if (!v) return false;
      opts.requests.emplace_back(v);
    } else if (std::strcmp(arg, "--workload") == 0) {
      const char* v = cli.next_value(i, "--workload");
      if (!v) return false;
      opts.workload_path = v;
    } else if (std::strcmp(arg, "--threads") == 0) {
      if (!cli.threads(i, opts.threads)) return false;
    } else if (std::strcmp(arg, "--repeat") == 0) {
      if (!cli.long_in(i, "--repeat", 1, 1L << 20, opts.repeat)) return false;
    } else if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      usage(stdout);
      std::exit(0);
    } else {
      std::fprintf(stderr, "unp_serve: unknown option '%s'\n", arg);
      usage(stderr);
      return false;
    }
  }
  const bool server = !opts.store_paths.empty();
  const bool client = opts.connect >= 0;
  if (server == client) {
    std::fprintf(stderr,
                 "unp_serve: need exactly one of --store (server) or "
                 "--connect (client)\n");
    usage(stderr);
    return false;
  }
  if (client && opts.requests.empty() && opts.workload_path.empty()) {
    std::fprintf(stderr,
                 "unp_serve: client mode needs --request or --workload\n");
    return false;
  }
  return true;
}

int run_server(const Options& opts) {
  serve::Server::Config config;
  config.store_paths = opts.store_paths;
  config.port = static_cast<std::uint16_t>(opts.port);
  config.workers = static_cast<std::size_t>(opts.workers);
  config.cache_capacity = static_cast<std::size_t>(opts.cache);

  // Workers are the concurrency unit, so each render scans sequentially
  // (ScanOptions.pool = nullptr): N slow scans in parallel beat N scans
  // fighting over one nested pool.
  serve::Server server(
      std::move(config),
      [](const std::string& line, const store::StoreReader& reader) {
        const bench::QueryRequest req = bench::parse_request_line(line);
        return bench::render_request_to_string(reader, req,
                                               store::ScanOptions{});
      });
  server.start();

  std::fprintf(stderr,
               "unp_serve: listening on 127.0.0.1:%u  (%zu workers, cache "
               "%ld, store %s)\n",
               server.port(), static_cast<std::size_t>(opts.workers),
               opts.cache, opts.store_paths.front().c_str());
  if (!opts.port_file.empty()) {
    std::ofstream pf(opts.port_file, std::ios::trunc);
    pf << server.port() << "\n";
    if (!pf.flush()) {
      std::fprintf(stderr, "unp_serve: cannot write port file '%s'\n",
                   opts.port_file.c_str());
      server.stop();
      return 2;
    }
  }

  server.wait();  // released by a client's `shutdown`
  server.stop();
  const serve::Server::Stats stats = server.stats();
  std::fprintf(stderr,
               "unp_serve: shut down after %llu queries  (cache %llu hits / "
               "%llu misses)\n",
               static_cast<unsigned long long>(stats.queries),
               static_cast<unsigned long long>(stats.cache.hits),
               static_cast<unsigned long long>(stats.cache.misses));
  return 0;
}

std::vector<std::string> load_workload(const Options& opts) {
  std::vector<std::string> lines = opts.requests;
  if (!opts.workload_path.empty()) {
    std::ifstream in(opts.workload_path);
    if (!in) {
      std::fprintf(stderr, "unp_serve: cannot read workload '%s'\n",
                   opts.workload_path.c_str());
      std::exit(2);
    }
    std::string line;
    while (std::getline(in, line)) {
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty() || line[0] == '#') continue;
      lines.push_back(line);
    }
  }
  std::vector<std::string> repeated;
  repeated.reserve(lines.size() * static_cast<std::size_t>(opts.repeat));
  for (long k = 0; k < opts.repeat; ++k)
    repeated.insert(repeated.end(), lines.begin(), lines.end());
  return repeated;
}

int run_client(const Options& opts) {
  const std::vector<std::string> requests = load_workload(opts);
  const std::size_t n = requests.size();
  std::vector<serve::Response> responses(n);
  const std::size_t nthreads =
      std::min<std::size_t>(opts.threads, n == 0 ? 1 : n);

  std::mutex error_mutex;
  std::vector<std::string> transport_errors;
  std::vector<std::thread> threads;
  threads.reserve(nthreads);
  for (std::size_t t = 0; t < nthreads; ++t) {
    threads.emplace_back([&, t] {
      try {
        const int fd =
            serve::connect_local(static_cast<std::uint16_t>(opts.connect));
        for (std::size_t i = t; i < n; i += nthreads)
          responses[i] = serve::roundtrip(fd, requests[i]);
        (void)::close(fd);
      } catch (const ContractViolation& e) {
        std::lock_guard<std::mutex> lock(error_mutex);
        transport_errors.emplace_back(e.what());
      }
    });
  }
  for (std::thread& t : threads) t.join();

  for (const std::string& err : transport_errors)
    std::fprintf(stderr, "unp_serve: %s\n", err.c_str());
  if (!transport_errors.empty()) return 2;

  bool any_err = false;
  for (std::size_t i = 0; i < n; ++i) {
    if (responses[i].ok) {
      std::fwrite(responses[i].body.data(), 1, responses[i].body.size(),
                  stdout);
    } else {
      any_err = true;
      std::fprintf(stderr, "unp_serve: ERR for '%s': %s\n",
                   requests[i].c_str(), responses[i].body.c_str());
    }
  }
  return any_err ? 2 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  if (!parse_args(argc, argv, opts)) return 2;
  try {
    return opts.connect >= 0 ? run_client(opts) : run_server(opts);
  } catch (const ContractViolation& e) {
    std::fprintf(stderr, "unp_serve: fatal: %s\n", e.what());
    return 2;
  }
}
