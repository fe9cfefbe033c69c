// Performance gate: the sharded campaign fabric at ensemble scale.
//
// The fabric's promise is twofold: sharding is EXACT (a K-way partition
// merges back into the byte-identical monolithic record stream) and it is
// CHEAP (per-shard memory stays bounded by one node's frame, so a fleet of
// shard processes can sweep an ensemble far larger than any single-machine
// campaign).  This bench gates both halves:
//
//   1. Exactness canary - a two-week slice simulated monolithically and as
//      4 shards; the streaming merge of the shard archives must equal the
//      monolithic UNPS stream byte for byte.
//
//   2. Ensemble throughput - a ~100-member ensemble (distinct seeds) of
//      two-week sharded campaigns streamed through counting sinks.  Reports
//      simulated node-days per second and gates peak RSS: streaming shards
//      never materialize an archive, so memory must stay flat no matter how
//      many members run.
//
// Writes machine-readable results to BENCH_shard.json (override with
// --json <path>).  Exits non-zero on failure so CI can gate on it.
#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "sim/campaign.hpp"
#include "sim/shard.hpp"
#include "telemetry/shard_merge.hpp"
#include "util/bench_json.hpp"
#include "util/campaign_cache.hpp"
#include "util/cli_args.hpp"

namespace {

using namespace unp;

constexpr int kShards = 4;
constexpr double kRssLimitMiB = 2048.0;

sim::CampaignConfig slice_config(std::uint64_t seed) {
  sim::CampaignConfig config;
  config.seed = seed;
  config.window.start = from_civil_utc({2015, 9, 1, 0, 0, 0});
  config.window.end = from_civil_utc({2015, 9, 15, 0, 0, 0});
  return config;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Peak resident set of this process, MiB (ru_maxrss is KiB on Linux).
double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Counts records without retaining them: the bounded-memory consumer the
/// ensemble streams through.
class CountingSink final : public telemetry::RecordSink {
 public:
  void on_start(const telemetry::StartRecord&) override {}
  void on_end(const telemetry::EndRecord&) override {}
  void on_alloc_fail(const telemetry::AllocFailRecord&) override {}
  void on_error_run(const telemetry::ErrorRun& r) override {
    raw_errors_ += r.count;
  }
  [[nodiscard]] std::uint64_t raw_errors() const noexcept {
    return raw_errors_;
  }

 private:
  std::uint64_t raw_errors_ = 0;
};

/// Gate 1: K shard archives merge back into the monolithic bytes.
bool run_exactness_canary(std::size_t threads) {
  const sim::CampaignConfig config = slice_config(42);
  const std::uint64_t fingerprint =
      bench::campaign_fingerprint(config, analysis::ExtractionConfig{});

  std::ostringstream mono;
  {
    telemetry::ArchiveWriter writer(mono);
    (void)sim::run_campaign_shard(config, sim::ShardSpec{}, {&writer},
                                  threads);
  }

  const char* tmp = std::getenv("TMPDIR");
  const std::string dir = (tmp != nullptr && *tmp != '\0') ? tmp : "/tmp";
  std::vector<std::string> paths;
  for (int i = 0; i < kShards; ++i) {
    const std::string path = dir + "/unp_perf_shard_" +
                             std::to_string(::getpid()) + "_" +
                             std::to_string(i) + ".unph";
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    if (!os) {
      std::fprintf(stderr, "FATAL: cannot write %s\n", path.c_str());
      std::exit(1);
    }
    telemetry::write_shard_header(
        os, {kShards, static_cast<std::uint32_t>(i), fingerprint});
    telemetry::ArchiveWriter writer(os);
    (void)sim::run_campaign_shard(config, sim::ShardSpec{kShards, i},
                                  {&writer}, threads);
    paths.push_back(path);
  }

  std::ostringstream merged;
  telemetry::merge_shard_archives(paths, merged);
  for (const std::string& path : paths) std::remove(path.c_str());

  const bool identical = merged.view() == mono.view();
  std::printf("exactness canary       : %d shards merged %s monolithic "
              "(%zu bytes)\n",
              kShards, identical ? "==" : "DIVERGED from",
              mono.view().size());
  return identical;
}

void write_json(const std::string& path, bool canary, int members,
                double node_days, double elapsed_s, double throughput,
                double rss_mib, bool rss_ok, bool pass) {
  std::FILE* f = bench::open_json(path);
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"perf_shard\",\n"
               "  \"shards\": %d,\n"
               "  \"canary_byte_identical\": %s,\n"
               "  \"ensemble_members\": %d,\n"
               "  \"node_days\": %.1f,\n"
               "  \"elapsed_s\": %.3f,\n"
               "  \"node_days_per_s\": %.1f,\n"
               "  \"peak_rss_mib\": %.1f,\n"
               "  \"rss_limit_mib\": %.1f,\n"
               "  \"rss_bounded\": %s,\n"
               "  \"pass\": %s\n"
               "}\n",
               kShards, canary ? "true" : "false", members, node_days,
               elapsed_s, throughput, rss_mib, kRssLimitMiB,
               rss_ok ? "true" : "false", pass ? "true" : "false");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_shard.json";
  long members = 100;
  const bench::CliParser cli("bench_perf_shard", argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      const char* v = cli.next_value(i, "--json");
      if (v == nullptr) return 2;
      json_path = v;
    } else if (std::strcmp(argv[i], "--members") == 0) {
      if (!cli.long_in(i, "--members", 1, bench::CliParser::kNoUpperBound,
                       members))
        return 2;
    } else {
      std::fprintf(stderr, "usage: %s [--json <path>] [--members <n>]\n",
                   argv[0]);
      return 2;
    }
  }

  bench::print_header(
      "perf_shard - sharded campaign fabric at ensemble scale",
      "4-shard merge byte-identical to the monolithic stream; ensemble "
      "throughput in node-days/s with peak RSS bounded");

  const std::size_t threads = sim::default_campaign_threads();
  const bool canary = run_exactness_canary(threads);

  // --- Ensemble sweep: `members` sharded two-week campaigns. ----------------
  const auto t0 = std::chrono::steady_clock::now();
  double node_days = 0.0;
  std::uint64_t raw_errors = 0;
  for (long m = 0; m < members; ++m) {
    const sim::CampaignConfig config = slice_config(1000 + static_cast<std::uint64_t>(m));
    const double days =
        static_cast<double>(config.window.end - config.window.start) / 86400.0;
    for (int i = 0; i < kShards; ++i) {
      CountingSink counter;
      const sim::CampaignSummary summary = sim::run_campaign_shard(
          config, sim::ShardSpec{kShards, i}, {&counter}, threads);
      node_days += static_cast<double>(summary.accounting.size()) * days;
      raw_errors += counter.raw_errors();
    }
  }
  const double elapsed_s = seconds_since(t0);
  const double throughput = node_days / elapsed_s;
  const double rss_mib = peak_rss_mib();
  const bool rss_ok = rss_mib <= kRssLimitMiB;

  std::printf("ensemble               : %ld members x %d shards  "
              "(%llu raw errors)\n",
              members, kShards, static_cast<unsigned long long>(raw_errors));
  std::printf("throughput             : %.0f node-days in %.2f s = "
              "%.0f node-days/s\n",
              node_days, elapsed_s, throughput);
  std::printf("peak RSS               : %.1f MiB (limit %.0f MiB) %s\n",
              rss_mib, kRssLimitMiB, rss_ok ? "" : "EXCEEDED");

  const bool pass = canary && rss_ok;
  write_json(json_path, canary, static_cast<int>(members), node_days,
             elapsed_s, throughput, rss_mib, rss_ok, pass);
  std::printf("results written to %s\n", json_path.c_str());
  if (!pass) {
    std::printf("\nPERF GATE FAILED (%s%s%s)\n", canary ? "" : "exactness",
                !canary && !rss_ok ? ", " : "", rss_ok ? "" : "rss");
    return 1;
  }
  std::printf("\nperf gates met\n");
  return 0;
}
