// Performance gate: the ECC evaluation engine's exhaustive enumerator.
//
// Two promises are gated:
//
//   1. Invariance - exhaustive tallies are bit-identical across thread
//      counts {1, 2, 8}.  The enumerator stripes a deterministic
//      combination ranking and merges additive u64 counters, so ANY
//      divergence is a real bug, not noise.  (The population replay runs
//      on one thread over a mask census, so it has no thread count to
//      vary.)
//
//   2. Scaling - the exhaustive sweep parallelizes: at 8 worker threads the
//      enumeration must run >= 4x faster than single-threaded ON HARDWARE
//      WITH >= 8 CPUS.  On smaller hosts the requirement scales down
//      proportionally (hw/2, floored at no-catastrophic-slowdown), because
//      extra pool workers cannot beat physics; the JSON records the
//      hardware width alongside the requirement so CI trend lines stay
//      interpretable.
//
// The scaling workload is BCH(64,t=2) at K=4: ~1.4M patterns whose weight
// >t decodes exercise the full syndrome/BM/Chien path - enough per-pattern
// work for threading to matter, small enough to finish in seconds.
//
// Writes machine-readable results to BENCH_ecc.json (override with
// --json <path>).  Exits non-zero on failure so CI can gate on it.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.hpp"
#include "ecc/engine.hpp"
#include "ecc/registry.hpp"
#include "util/bench_json.hpp"
#include "util/campaign_cache.hpp"
#include "util/cli_args.hpp"

namespace {

using namespace unp;

constexpr int kScalingWeight = 4;
const char* const kScalingCode = "bch:64/2";

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Exhaustive tallies must agree bit-for-bit across pools.
bool run_invariance(const std::vector<std::size_t>& thread_counts) {
  bool ok = true;
  for (const char* spec : {"secded72", "hsiao:64/8", "bch:64/2"}) {
    const auto code = ecc::make_code(spec);
    std::vector<ecc::ExhaustiveResult> runs;
    for (const std::size_t threads : thread_counts) {
      ThreadPool pool(threads);
      runs.push_back(ecc::evaluate_exhaustive(*code, 3, pool));
    }
    for (std::size_t i = 1; i < runs.size(); ++i) {
      if (runs[i].weights != runs[0].weights) {
        std::printf("INVARIANCE VIOLATION: %s exhaustive counts differ "
                    "between %zu and %zu threads\n",
                    spec, thread_counts[0], thread_counts[i]);
        ok = false;
      }
    }
  }
  std::printf("invariance             : exhaustive identical across {1,2,8} "
              "threads %s\n",
              ok ? "" : "FAILED");
  return ok;
}

void write_json(const std::string& path, unsigned hw_threads,
                std::uint64_t patterns, double t1_s, double t8_s,
                double speedup, double required, bool scaling_ok,
                bool invariance_ok, bool pass) {
  std::FILE* f = bench::open_json(path);
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"perf_ecc\",\n"
               "  \"hardware_threads\": %u,\n"
               "  \"scaling_code\": \"%s\",\n"
               "  \"scaling_max_weight\": %d,\n"
               "  \"patterns\": %llu,\n"
               "  \"t1_s\": %.3f,\n"
               "  \"t8_s\": %.3f,\n"
               "  \"speedup\": %.2f,\n"
               "  \"required_speedup\": %.2f,\n"
               "  \"patterns_per_s_8t\": %.0f,\n"
               "  \"scaling_ok\": %s,\n"
               "  \"invariance_ok\": %s,\n"
               "  \"pass\": %s\n"
               "}\n",
               hw_threads, kScalingCode, kScalingWeight,
               static_cast<unsigned long long>(patterns), t1_s, t8_s, speedup,
               required, static_cast<double>(patterns) / t8_s,
               scaling_ok ? "true" : "false", invariance_ok ? "true" : "false",
               pass ? "true" : "false");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_ecc.json";
  const bench::CliParser cli("bench_perf_ecc", argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      const char* v = cli.next_value(i, "--json");
      if (v == nullptr) return 2;
      json_path = v;
    } else {
      std::fprintf(stderr, "usage: %s [--json <path>]\n", argv[0]);
      return 2;
    }
  }

  bench::print_header(
      "perf_ecc - exhaustive ECC enumeration: invariance + scaling",
      "tallies bit-identical across {1,2,8} threads; 8-thread enumeration "
      ">=4x single-threaded on >=8-cpu hardware (proportional below)");

  const bool invariance_ok = run_invariance({1, 2, 8});

  // --- Scaling: the BCH K=4 sweep at 1 vs 8 worker threads. -----------------
  const auto code = ecc::make_code(kScalingCode);
  std::uint64_t patterns = 0;
  double t1_s = 0.0;
  double t8_s = 0.0;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    ThreadPool pool(threads);
    const auto t0 = std::chrono::steady_clock::now();
    const ecc::ExhaustiveResult result =
        ecc::evaluate_exhaustive(*code, kScalingWeight, pool);
    const double elapsed = seconds_since(t0);
    patterns = result.total_patterns();
    (threads == 1 ? t1_s : t8_s) = elapsed;
    std::printf("exhaustive %s K=%d  : %7.2f s at %zu threads  "
                "(%.0f patterns/s)\n",
                kScalingCode, kScalingWeight, elapsed, threads,
                static_cast<double>(patterns) / elapsed);
  }
  const double speedup = t1_s / t8_s;

  // Hardware-aware requirement: the ISSUE's 4x-at-8-threads bar applies on
  // hosts with >= 8 CPUs; below that, demand proportional scaling (hw/2)
  // and never less than "threading must not wreck throughput" (0.75x).
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const double required =
      hw >= 8 ? 4.0 : std::max(0.75, static_cast<double>(hw) / 2.0);
  const bool scaling_ok = speedup >= required;
  std::printf("scaling                : %.2fx at 8 threads (required %.2fx "
              "on %u-cpu hardware) %s\n",
              speedup, required, hw, scaling_ok ? "" : "FAILED");

  const bool pass = invariance_ok && scaling_ok;
  write_json(json_path, hw, patterns, t1_s, t8_s, speedup, required,
             scaling_ok, invariance_ok, pass);
  std::printf("results written to %s\n", json_path.c_str());
  if (!pass) {
    std::printf("\nPERF GATE FAILED (%s%s%s)\n",
                invariance_ok ? "" : "invariance",
                !invariance_ok && !scaling_ok ? ", " : "",
                scaling_ok ? "" : "scaling");
    return 1;
  }
  std::printf("\nperf gates met\n");
  return 0;
}
