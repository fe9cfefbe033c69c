// Performance gate: the serve path end to end.
//
// Three measurements against one store built from the warm campaign cache:
//
//   1. decode throughput — the same predicate workload scanned once with
//      the scalar store kernels and once with the active SIMD set; gate:
//      SIMD >= 2x scalar (skipped as trivially met when the machine's best
//      ISA IS scalar);
//   2. byte-identity — every served response body, read back through a real
//      loopback connection, must equal the bytes render_request produces
//      directly (the CLI path), for the whole mixed workload;
//   3. serve latency — N client threads (>= 8) replay the mixed
//      figure/predicate workload against the server; reports p50/p99
//      latency and queries/s.
//
// Results go to BENCH_serve.json (override with --json <path>); non-zero
// exit on gate failure so CI can gate on it.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "analysis/streaming_extractor.hpp"
#include "serve/server.hpp"
#include "sim/campaign.hpp"
#include "store/builder.hpp"
#include "store/handle.hpp"
#include "store/kernels/kernels.hpp"
#include "store/reader.hpp"
#include "util/bench_json.hpp"
#include "util/campaign_cache.hpp"
#include "util/cli_args.hpp"
#include "util/query_render.hpp"

namespace {

using namespace unp;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// The mixed workload: predicate scans (cheap, decode-bound) interleaved
/// with figure renders (heavier, analyzer-bound) — the request mix a
/// dashboard actually issues.
const char* const kWorkload[] = {
    "--count",
    "--class multi --count",
    "--blade 30 --count",
    "--since 1434000000 --until 1435000000 --count",
    "--class single --blade 7 --count",
    "--limit 5",
    "--class many --limit 3",
    "--fig 3",
    "--fig 5",
    "--tab1",
    "--headline",
    "--min-bits 2 --max-bits 8 --count",
};

/// Scans whose required columns are the predicate set (first_seen varints +
/// class bit-pack): the columns the SIMD decode kernels accelerate.
store::Query decode_gate_query() {
  store::Query q;
  q.since = 0;
  q.until = std::numeric_limits<TimePoint>::max();
  q.min_bits = 2;  // class-aligned => class column, no pattern pair
  q.projection = 0;
  return q;
}

/// Total stored bytes of the segments a no-prune scan decodes.
double store_data_bytes(const store::StoreReader& reader) {
  double bytes = 0.0;
  for (const store::SegmentZone& zone : reader.zones())
    bytes += static_cast<double>(zone.size);
  return bytes;
}

struct DecodeResult {
  double ms = 0.0;
  std::uint64_t rows = 0;
};

DecodeResult time_decode(const store::StoreReader& reader,
                         const store::kernels::StoreKernels& kernels) {
  store::Query q = decode_gate_query();
  store::ScanOptions options;
  options.prune = false;  // decode every segment: throughput, not pruning
  options.kernels = &kernels;
  constexpr int kIterations = 5;
  DecodeResult best{1e300, 0};
  for (int i = 0; i < kIterations; ++i) {
    store::ScanStats stats;
    const auto t0 = Clock::now();
    (void)reader.run(q, options, &stats);
    const double ms = ms_since(t0);
    if (ms < best.ms) best.ms = ms;
    best.rows = stats.rows_scanned;
  }
  return best;
}

void write_json(const std::string& path, double scalar_gbps, double simd_gbps,
                double speedup, const char* simd_name, bool identical,
                std::size_t client_threads, std::size_t requests,
                double p50_ms, double p99_ms, double qps, bool pass) {
  std::FILE* f = bench::open_json(path);
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"perf_serve\",\n"
               "  \"decode_scalar_gbps\": %.3f,\n"
               "  \"decode_simd_gbps\": %.3f,\n"
               "  \"decode_speedup\": %.2f,\n"
               "  \"simd_kernel\": \"%s\",\n"
               "  \"responses_byte_identical\": %s,\n"
               "  \"client_threads\": %zu,\n"
               "  \"requests\": %zu,\n"
               "  \"latency_p50_ms\": %.3f,\n"
               "  \"latency_p99_ms\": %.3f,\n"
               "  \"queries_per_s\": %.1f,\n"
               "  \"pass\": %s\n"
               "}\n",
               scalar_gbps, simd_gbps, speedup, simd_name,
               identical ? "true" : "false", client_threads, requests, p50_ms,
               p99_ms, qps, pass ? "true" : "false");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_serve.json";
  const bench::CliParser cli("bench_perf_serve", argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      const char* v = cli.next_value(i, "--json");
      if (!v) return 2;
      json_path = v;
    } else {
      std::fprintf(stderr, "usage: %s [--json <path>]\n", argv[0]);
      return 2;
    }
  }

  bench::print_header(
      "perf_serve - concurrent query/report serving over a shared store",
      "SIMD store decode >= 2x scalar; served responses byte-identical to "
      "unp_query; p50/p99 latency and queries/s under >= 8 client threads");

  if (bench::default_cache_path().empty()) {
    std::printf("campaign cache disabled (UNP_CAMPAIGN_CACHE=off); nothing "
                "to serve.\n");
    return 0;
  }
  const std::string store_path = bench::default_cache_path() + ".serve.unpf";
  analysis::ExtractionResult extraction;
  {
    analysis::ScanProfileSink scan;
    analysis::StreamingExtractor extractor;
    const bench::StreamStats acquire = bench::stream_campaign(
        sim::CampaignConfig{}, analysis::ExtractionConfig{},
        {&scan, &extractor}, sim::default_campaign_threads());
    extraction = extractor.finish();
    store::write_store(store_path, extraction, scan, acquire.fingerprint);
    std::printf("store: %s  (%llu faults)\n", store_path.c_str(),
                static_cast<unsigned long long>(extraction.faults.size()));
  }
  const store::StoreReader reader = store::StoreReader::open(store_path);

  // Decode-gate store: the campaign population replicated (time-shifted so
  // canonical order is preserved) until column decode — not per-scan fixed
  // costs like zone iteration and output allocation — dominates the
  // measurement.  Held in memory; the serve phase below uses the real file.
  const store::StoreReader decode_reader = [&extraction] {
    constexpr int kReplicas = 20;
    const TimePoint first = extraction.faults.front().first_seen;
    const TimePoint shift = extraction.faults.back().first_seen - first + 1;
    store::StoreBuilder builder;
    builder.set_window(
        CampaignWindow{first, first + shift * (kReplicas + 1)});
    builder.begin_faults(analysis::FaultStreamContext{
        {first, first + shift * (kReplicas + 1)}});
    for (int k = 0; k < kReplicas; ++k) {
      for (analysis::FaultRecord f : extraction.faults) {
        f.first_seen += shift * k;
        f.last_seen += shift * k;
        builder.on_fault(f);
      }
    }
    builder.end_faults();
    return store::StoreReader(
        store::StoreHandle::from_bytes(builder.encode()));
  }();
  const double data_bytes = store_data_bytes(decode_reader);

  // --- Gate 1: SIMD decode throughput vs the scalar oracle. ---------------
  const store::kernels::StoreKernels& scalar =
      store::kernels::store_kernels_for(store::kernels::Isa::kScalar);
  const store::kernels::StoreKernels& active =
      store::kernels::active_store_kernels();
  const DecodeResult scalar_run = time_decode(decode_reader, scalar);
  const DecodeResult simd_run = time_decode(decode_reader, active);
  const double scalar_gbps = data_bytes / (scalar_run.ms * 1e6);
  const double simd_gbps = data_bytes / (simd_run.ms * 1e6);
  const double speedup = simd_run.ms > 0.0 ? scalar_run.ms / simd_run.ms : 0.0;
  const bool simd_available = active.isa != store::kernels::Isa::kScalar;
  std::printf("\ndecode (no-prune predicate scan, %llu rows, %.1f MiB)\n",
              static_cast<unsigned long long>(scalar_run.rows),
              data_bytes / (1024.0 * 1024.0));
  std::printf("  scalar               : %9.2f ms  (%6.2f GB/s)\n",
              scalar_run.ms, scalar_gbps);
  std::printf("  %-20s : %9.2f ms  (%6.2f GB/s)  %.2fx\n", active.name,
              simd_run.ms, simd_gbps, speedup);
  const bool gate_decode = !simd_available || speedup >= 2.0;
  if (!simd_available)
    std::printf("  (best supported ISA is scalar; decode gate trivially "
                "met)\n");

  // --- Serve: byte-identity + latency under concurrent clients. -----------
  serve::Server server(
      serve::Server::Config{{store_path}, 0, 8, 256},
      [](const std::string& line, const store::StoreReader& r) {
        return bench::render_request_to_string(r, bench::parse_request_line(line),
                                               store::ScanOptions{});
      });
  server.start();

  // Expected bodies straight through the CLI render path (equal store, equal
  // code => the server must return these exact bytes over the wire).
  std::vector<std::string> expected;
  for (const char* line : kWorkload)
    expected.push_back(bench::render_request_to_string(
        reader, bench::parse_request_line(line), store::ScanOptions{}));

  constexpr std::size_t kClientThreads = 8;
  constexpr std::size_t kRounds = 8;  // workload replays per client thread
  const std::size_t per_client = kRounds * std::size(kWorkload);
  std::vector<std::vector<double>> latencies(kClientThreads);
  std::vector<int> mismatches(kClientThreads, 0);

  const auto t_serve = Clock::now();
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClientThreads; ++c) {
    clients.emplace_back([&, c] {
      const int fd = serve::connect_local(server.port());
      latencies[c].reserve(per_client);
      for (std::size_t r = 0; r < kRounds; ++r) {
        for (std::size_t w = 0; w < std::size(kWorkload); ++w) {
          const auto t0 = Clock::now();
          const serve::Response resp = serve::roundtrip(fd, kWorkload[w]);
          latencies[c].push_back(ms_since(t0));
          if (!resp.ok || resp.body != expected[w]) ++mismatches[c];
        }
      }
      (void)::close(fd);
    });
  }
  for (std::thread& t : clients) t.join();
  const double serve_ms = ms_since(t_serve);
  server.stop();

  std::vector<double> all;
  for (const auto& v : latencies) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  const std::size_t requests = all.size();
  const double p50 = all[requests / 2];
  const double p99 = all[std::min(requests - 1, requests * 99 / 100)];
  const double qps = static_cast<double>(requests) / (serve_ms / 1000.0);
  int total_mismatches = 0;
  for (int m : mismatches) total_mismatches += m;
  const bool identical = total_mismatches == 0;

  std::printf("\nserve (%zu clients x %zu requests, cache on)\n",
              kClientThreads, per_client);
  std::printf("  responses            : %zu, %s\n", requests,
              identical ? "all byte-identical to the CLI render"
                        : "MISMATCHED bodies");
  std::printf("  latency              : p50 %.3f ms, p99 %.3f ms\n", p50, p99);
  std::printf("  throughput           : %.1f queries/s\n", qps);

  const bool pass = gate_decode && identical;
  write_json(json_path, scalar_gbps, simd_gbps, speedup, active.name,
             identical, kClientThreads, requests, p50, p99, qps, pass);
  std::printf("results written to %s\n", json_path.c_str());

  std::remove(store_path.c_str());
  if (!pass) {
    std::printf("\nPERF GATE FAILED (%s%s%s)\n",
                gate_decode ? "" : "decode speedup",
                !gate_decode && !identical ? ", " : "",
                identical ? "" : "byte-identity");
    return 1;
  }
  std::printf("\nperf gates met\n");
  return 0;
}
