// Perf gate: the live memory scanner's check-and-flip pass must run at
// vector speed.
//
// The original tool's duty is to sweep 3 GB continuously; its pass rate
// bounds the detection latency of every fault in the study.  PR 5 moved the
// fused verify+write loop onto runtime-dispatched SIMD kernels
// (src/scanner/kernels); this gate measures every ISA path the CPU supports
// over several buffer sizes and
//
//   PASSes iff the dispatched (best) kernel beats the scalar oracle by
//   >= 1.5x GB/s on every buffer of >= 16 MiB,
//
// printing a human table to stdout and machine-readable results to
// BENCH_scanner.json (override with --json <path>) so the perf trajectory
// is tracked across PRs.  On a CPU with no vector path the gate is skipped
// (scalar cannot beat itself) but the JSON is still written.
//
// Exits non-zero on failure so CI can gate on it.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.hpp"
#include "scanner/kernels/kernels.hpp"
#include "scanner/real_backend.hpp"
#include "util/bench_json.hpp"

namespace kernels = unp::scanner::kernels;

namespace {

using namespace unp;

struct Row {
  std::string kernel;
  std::uint64_t bytes = 0;
  std::size_t threads = 1;
  bool nontemporal = false;
  double pass_gbps = 0.0;  // fused verify+write sweep
  double fill_gbps = 0.0;  // session-start fill
};

/// Best-of-N timing of the fused pass and the fill over one backend.
Row measure(kernels::Isa isa, std::uint64_t bytes, std::size_t threads,
            ThreadPool* pool) {
  scanner::RealMemoryBackend backend =
      pool != nullptr ? scanner::RealMemoryBackend(bytes, *pool)
                      : scanner::RealMemoryBackend(bytes, threads);
  backend.set_kernel_set(kernels::kernels_for(isa));

  // Correctness canary: one planted mismatch must surface exactly once.
  backend.fill(0x00000000u);
  backend.poke(backend.word_count() / 2, 0xDEADBEEFu);
  std::uint64_t canary = 0;
  backend.verify_and_write(0x00000000u, 0xFFFFFFFFu,
                           [&](std::uint64_t, Word) { ++canary; });
  if (canary != 1) {
    std::fprintf(stderr, "FATAL: %s kernel reported %llu mismatches for 1\n",
                 kernels::to_string(isa),
                 static_cast<unsigned long long>(canary));
    std::exit(1);
  }

  const int reps = static_cast<int>(
      std::clamp<std::uint64_t>((512ull << 20) / bytes, 4, 64));
  const double gib = static_cast<double>(bytes) / (1024.0 * 1024.0 * 1024.0);

  Row row;
  row.kernel = kernels::to_string(isa);
  row.bytes = bytes;
  row.threads = threads;
  row.nontemporal = backend.uses_nontemporal_stores();

  Word expected = 0xFFFFFFFFu, next = 0x00000000u;
  std::uint64_t sink = 0;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    backend.verify_and_write(expected, next,
                             [&](std::uint64_t, Word) { ++sink; });
    const double s = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    std::swap(expected, next);
    if (r == 0) continue;  // warm-up rep: page faults, cold branch state
    row.pass_gbps = std::max(row.pass_gbps, gib / s);
  }
  // A clean buffer reports nothing; fail loudly if a kernel disagrees.
  if (sink != 0) {
    std::fprintf(stderr, "FATAL: %s kernel reported mismatches on a clean "
                         "buffer\n",
                 kernels::to_string(isa));
    std::exit(1);
  }

  for (int r = 0; r < std::max(2, reps / 2); ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    backend.fill(0xA5A5A5A5u);
    const double s = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    if (r == 0) continue;
    row.fill_gbps = std::max(row.fill_gbps, gib / s);
  }
  return row;
}

void write_json(const std::string& path, const std::vector<Row>& rows,
                kernels::Isa best, double min_speedup,
                double measured_speedup, bool gated, bool pass) {
  std::FILE* f = bench::open_json(path);
  std::fprintf(f, "{\n  \"bench\": \"scanner_kernels\",\n");
  std::fprintf(f, "  \"active_kernel\": \"%s\",\n",
               kernels::active_kernels().name);
  std::fprintf(f, "  \"best_kernel\": \"%s\",\n", kernels::to_string(best));
  std::fprintf(f, "  \"nontemporal_threshold_bytes\": %zu,\n",
               kernels::nontemporal_threshold_bytes());
  std::fprintf(f, "  \"results\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f,
                 "    {\"kernel\": \"%s\", \"bytes\": %llu, \"threads\": %zu, "
                 "\"nontemporal\": %s, \"pass_gbps\": %.3f, "
                 "\"fill_gbps\": %.3f}%s\n",
                 r.kernel.c_str(), static_cast<unsigned long long>(r.bytes),
                 r.threads, r.nontemporal ? "true" : "false", r.pass_gbps,
                 r.fill_gbps, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"gate\": {\"min_speedup\": %.2f, \"measured_speedup\": "
               "%.3f, \"gated\": %s, \"pass\": %s}\n}\n",
               min_speedup, measured_speedup, gated ? "true" : "false",
               pass ? "true" : "false");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace unp;
  std::string json_path = "BENCH_scanner.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--json <path>]\n", argv[0]);
      return 2;
    }
  }

  const std::vector<std::uint64_t> sizes{1ull << 20, 16ull << 20, 64ull << 20};
  constexpr double kMinSpeedup = 1.5;
  const kernels::Isa best = kernels::best_supported_isa();

  std::printf("scanner sweep kernels (active: %s, best: %s, NT threshold: "
              "%zu MiB)\n",
              kernels::active_kernels().name, kernels::to_string(best),
              kernels::nontemporal_threshold_bytes() >> 20);
  std::printf("%-8s %10s %8s %4s %12s %12s\n", "kernel", "MiB", "threads",
              "NT", "pass GB/s", "fill GB/s");

  std::vector<Row> rows;
  for (const kernels::Isa isa : kernels::supported_isas()) {
    for (const std::uint64_t bytes : sizes) {
      rows.push_back(measure(isa, bytes, 1, nullptr));
      const Row& r = rows.back();
      std::printf("%-8s %10llu %8zu %4s %12.2f %12.2f\n", r.kernel.c_str(),
                  static_cast<unsigned long long>(r.bytes >> 20), r.threads,
                  r.nontemporal ? "yes" : "no", r.pass_gbps, r.fill_gbps);
    }
  }

  // Informational: the best kernel across a shared pool (the deployment
  // shape: the campaign driver lends the scanner its own workers).
  const std::size_t hw = std::max<std::size_t>(
      1, std::thread::hardware_concurrency());
  if (hw > 1) {
    ThreadPool pool(hw);
    rows.push_back(measure(best, sizes.back(), hw, &pool));
    const Row& r = rows.back();
    std::printf("%-8s %10llu %8zu %4s %12.2f %12.2f\n", r.kernel.c_str(),
                static_cast<unsigned long long>(r.bytes >> 20), r.threads,
                r.nontemporal ? "yes" : "no", r.pass_gbps, r.fill_gbps);
  }

  // Gate: dispatched vs scalar on every buffer >= 16 MiB, single-threaded
  // so the comparison isolates the kernel, not the pool.
  bool ok = true;
  bool gated = best != kernels::Isa::kScalar;
  double worst_speedup = 0.0;
  if (!gated) {
    std::printf("gate SKIPPED: no vector path on this CPU\n");
  } else {
    worst_speedup = 1e30;
    for (const std::uint64_t bytes : sizes) {
      if (bytes < (16ull << 20)) continue;
      double scalar_gbps = 0.0, best_gbps = 0.0;
      for (const Row& r : rows) {
        if (r.bytes != bytes || r.threads != 1) continue;
        if (r.kernel == "scalar") scalar_gbps = r.pass_gbps;
        if (r.kernel == kernels::to_string(best)) best_gbps = r.pass_gbps;
      }
      const double speedup = scalar_gbps > 0.0 ? best_gbps / scalar_gbps : 0.0;
      worst_speedup = std::min(worst_speedup, speedup);
      std::printf("gate @ %4llu MiB: %s %.2fx vs scalar (need >= %.1fx)\n",
                  static_cast<unsigned long long>(bytes >> 20),
                  kernels::to_string(best), speedup, kMinSpeedup);
      if (speedup < kMinSpeedup) ok = false;
    }
  }

  write_json(json_path, rows, best, kMinSpeedup, gated ? worst_speedup : 0.0,
             gated, ok);
  std::printf("results written to %s\n", json_path.c_str());
  std::printf("%s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
