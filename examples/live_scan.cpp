// live_scan: the deployable memory scanner - the actual tool of the study.
//
// Allocates a resident buffer (3 GB with 10 MB back-off by default, like
// the original; configurable for laptops), then runs the check-and-flip
// loop until SIGTERM/SIGINT or a pass budget, logging START/ERROR/END in
// the campaign's log format.  On an ECC machine this should stay silent
// forever; the --inject flag plants synthetic upsets so the detection path
// can be watched end to end.
//
// Usage:
//   live_scan [--mb <megabytes>] [--passes <n>] [--threads <n>]
//             [--pattern alt|counter] [--inject <faults-per-pass>]
#include <csignal>
#include <cstdio>
#include <cstring>
#include <new>

#include "common/rng.hpp"
#include "scanner/alloc_policy.hpp"
#include "scanner/real_backend.hpp"
#include "scanner/scanner.hpp"
#include "telemetry/codec.hpp"
#include "util/cli_args.hpp"

namespace {

unp::scanner::MemoryScanner* g_scanner = nullptr;

void handle_signal(int) {
  if (g_scanner != nullptr) g_scanner->request_stop();
}

/// Sink printing each record as a log line, like the per-node files.
class StdoutSink final : public unp::scanner::LogSink {
 public:
  void on_start(const unp::telemetry::StartRecord& r) override {
    std::puts(unp::telemetry::serialize(r).c_str());
  }
  void on_end(const unp::telemetry::EndRecord& r) override {
    std::puts(unp::telemetry::serialize(r).c_str());
  }
  void on_alloc_fail(const unp::telemetry::AllocFailRecord& r) override {
    std::puts(unp::telemetry::serialize(r).c_str());
  }
  void on_error(const unp::telemetry::ErrorRecord& r) override {
    std::puts(unp::telemetry::serialize(r).c_str());
    ++errors;
  }
  std::uint64_t errors = 0;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace unp;

  std::uint64_t megabytes = 256;  // laptop-friendly default; the study used 3072
  std::uint64_t passes = 8;
  std::size_t threads = 2;
  scanner::PatternKind pattern = scanner::PatternKind::kAlternating;
  std::uint64_t inject_per_pass = 0;

  // Bad input exits 2 here, before any thread or allocation: --threads
  // starts that many OS threads, and --mb is shifted into bytes, so its
  // bound keeps the shift from overflowing.
  constexpr long kMaxMegabytes = 1L << 24;  // 16 TiB
  const bench::CliParser cli("live_scan", argc, argv);
  for (int i = 1; i < argc; ++i) {
    long n = 0;
    if (std::strcmp(argv[i], "--mb") == 0) {
      if (!cli.long_in(i, "--mb", 1, kMaxMegabytes, n)) return 2;
      megabytes = static_cast<std::uint64_t>(n);
    } else if (std::strcmp(argv[i], "--passes") == 0) {
      if (!cli.long_in(i, "--passes", 0, bench::CliParser::kNoUpperBound, n))
        return 2;
      passes = static_cast<std::uint64_t>(n);
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      if (!cli.threads(i, threads)) return 2;
    } else if (std::strcmp(argv[i], "--pattern") == 0) {
      const char* v = cli.next_value(i, "--pattern");
      if (v == nullptr) return 2;
      if (std::strcmp(v, "alt") == 0) {
        pattern = scanner::PatternKind::kAlternating;
      } else if (std::strcmp(v, "counter") == 0) {
        pattern = scanner::PatternKind::kCounter;
      } else {
        cli.reject_choice("--pattern", v, {"alt", "counter"});
        return 2;
      }
    } else if (std::strcmp(argv[i], "--inject") == 0) {
      if (!cli.long_in(i, "--inject", 0, bench::CliParser::kNoUpperBound, n))
        return 2;
      inject_per_pass = static_cast<std::uint64_t>(n);
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
  }

  // Allocation with the study's back-off policy.
  scanner::AllocPolicy policy;
  policy.target_bytes = megabytes << 20;
  policy.step_bytes = std::min<std::uint64_t>(10ULL << 20, policy.target_bytes);
  std::unique_ptr<scanner::RealMemoryBackend> backend;
  const std::uint64_t got = scanner::negotiate_allocation(policy, [&](std::uint64_t b) {
    try {
      backend = std::make_unique<scanner::RealMemoryBackend>(b, threads);
      return true;
    } catch (const std::bad_alloc&) {
      return false;
    }
  });
  if (got == 0) {
    std::fprintf(stderr, "allocation failed entirely\n");
    return 1;
  }
  std::fprintf(stderr,
               "# scanning %llu MB with %zu threads, pattern=%s, kernel=%s%s\n",
               static_cast<unsigned long long>(got >> 20), threads,
               scanner::to_string(pattern), backend->kernel_set().name,
               backend->uses_nontemporal_stores() ? " (non-temporal stores)"
                                                  : "");

  StdoutSink sink;
  scanner::SystemClock clock;
  scanner::FixedProbe probe(telemetry::kNoTemperature);
  scanner::MemoryScanner scan(*backend, sink, clock, probe,
                              {cluster::NodeId{0, 1}, pattern, got});
  g_scanner = &scan;
  std::signal(SIGTERM, handle_signal);
  std::signal(SIGINT, handle_signal);

  scan.start();
  RngStream rng(42);
  for (std::uint64_t p = 0; p < passes; ++p) {
    for (std::uint64_t f = 0; f < inject_per_pass; ++f) {
      // Flip 1-2 bits of a random resident word, mid-pass, like an upset.
      const std::uint64_t w = rng.uniform_u64(backend->word_count());
      Word mask = Word{1} << rng.uniform_u64(32);
      if (rng.bernoulli(0.1)) mask |= Word{1} << rng.uniform_u64(32);
      backend->poke(w, backend->peek(w) ^ mask);
    }
    if (!scan.step()) break;
  }
  scan.finish();
  g_scanner = nullptr;

  std::fprintf(stderr, "# %llu iterations, %llu errors logged\n",
               static_cast<unsigned long long>(scan.iterations()),
               static_cast<unsigned long long>(sink.errors));
  return 0;
}
