// Ad-hoc query CLI over the UNPF columnar fault store.
//
// Two halves, composable in one invocation:
//
//   --build PATH   run the shared campaign pipeline once (cache reload or
//                  simulate+spill, then streaming extraction) and persist
//                  faults + scan profile + extraction accounting as a
//                  columnar store at PATH;
//   --store PATH   open an existing store (implied by --build).
//
// Against the open store, SQL-lite predicate flags select faults
// (--since/--until epoch-second time range, --node/--blade/--soc location,
// --class or --min-bits/--max-bits multiplicity) and one action renders
// them: --count, a row listing (default, bounded by --limit), or any report
// section (--fig N / --tab1 / --headline / --ext NAME) replayed through the
// exact renderers unp_report uses — with no predicates the section output is
// byte-identical to the live pipeline's.
//
// The predicate/action vocabulary is parsed and rendered through
// util/query_render (shared with unp_serve), so a served response is
// byte-identical to this CLI's stdout and both front ends validate through
// the same store::QueryBuilder: an invalid request exits 2 with a
// field-naming diagnostic before any scan starts.
//
// Query results go to stdout; --stats adds a scan-observability footer
// (segments pruned/scanned, rows, wall clock) on stderr.  Exit status: 0 on
// success, 2 on bad usage or unreadable/corrupt input.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "analysis/streaming_extractor.hpp"
#include "common/thread_pool.hpp"
#include "sim/campaign.hpp"
#include "store/builder.hpp"
#include "store/reader.hpp"
#include "util/campaign_cache.hpp"
#include "util/cli_args.hpp"
#include "util/query_render.hpp"

namespace {

using namespace unp;

struct Options {
  std::string build_path;
  std::string store_path;
  std::vector<std::string> request_tokens;  ///< shared-vocabulary flags
  bool stats = false;
  std::uint64_t seed = 42;
  std::size_t threads = sim::default_campaign_threads();
  analysis::ExtractionConfig extraction;
};

void usage(std::FILE* out) {
  std::fprintf(
      out,
      "usage: unp_query (--build PATH | --store PATH) [predicates] [action]\n"
      "sources:\n"
      "  --build PATH       distill the campaign into a columnar store at "
      "PATH\n"
      "  --store PATH       query an existing store (implied by --build)\n"
      "predicates (AND-ed):\n"
      "  --since T          first_seen >= T (epoch seconds)\n"
      "  --until T          first_seen <  T (epoch seconds)\n"
      "  --node BB-SS       exact node (e.g. 58-02)\n"
      "  --blade B          blade 0..62\n"
      "  --soc S            SoC 0..14\n"
      "  --class NAME       single | double | few | many | multi\n"
      "  --min-bits N       flipped bits >= N (1..32)\n"
      "  --max-bits N       flipped bits <= N (1..32)\n"
      "actions (default: list matching rows):\n"
      "  --count            print the match count only\n"
      "  --limit N          list at most N rows (default 20; 0 = all)\n"
      "  --headline | --fig N | --tab1 | --ext NAME | --all\n"
      "                     replay matches through the unp_report renderers\n"
      "tuning:\n"
      "  --no-prune         scan every segment (zone-map pruning off)\n"
      "  --stats            scan observability footer on stderr\n"
      "  --threads T        worker threads (default: hardware concurrency)\n"
      "  --seed S           campaign seed for --build (default 42)\n"
      "  --merge-window S   extraction merge window for --build\n"
      "  --cache-dir DIR    campaign cache directory for --build\n");
}

bool parse_args(int argc, char** argv, Options& opts) {
  const bench::CliParser cli("unp_query", argc, argv);
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    bool needs_value = false;
    if (bench::is_request_flag(arg, &needs_value)) {
      // Shared query vocabulary: collect verbatim, validate in one place
      // (parse_request -> QueryBuilder) before the store is touched.
      opts.request_tokens.emplace_back(arg);
      if (needs_value) {
        const char* v = cli.next_value(i, arg);
        if (!v) return false;
        opts.request_tokens.emplace_back(v);
      }
    } else if (std::strcmp(arg, "--build") == 0) {
      const char* v = cli.next_value(i, "--build");
      if (!v) return false;
      opts.build_path = v;
    } else if (std::strcmp(arg, "--store") == 0) {
      const char* v = cli.next_value(i, "--store");
      if (!v) return false;
      opts.store_path = v;
    } else if (std::strcmp(arg, "--stats") == 0) {
      opts.stats = true;
    } else if (std::strcmp(arg, "--threads") == 0) {
      if (!cli.threads(i, opts.threads)) return false;
    } else if (std::strcmp(arg, "--seed") == 0) {
      if (!cli.u64(i, "--seed", opts.seed)) return false;
    } else if (std::strcmp(arg, "--merge-window") == 0) {
      long n = 0;
      if (!cli.long_in(i, "--merge-window", 0, 1L << 40, n)) return false;
      opts.extraction.merge_window_s = n;
    } else if (std::strcmp(arg, "--cache-dir") == 0) {
      const char* v = cli.next_value(i, "--cache-dir");
      if (!v) return false;
      setenv("UNP_CACHE_DIR", v, 1);
    } else if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      usage(stdout);
      std::exit(0);
    } else {
      std::fprintf(stderr, "unp_query: unknown option '%s'\n", arg);
      usage(stderr);
      return false;
    }
  }
  if (opts.build_path.empty() && opts.store_path.empty()) {
    std::fprintf(stderr, "unp_query: need --build PATH or --store PATH\n");
    usage(stderr);
    return false;
  }
  if (!opts.build_path.empty() && !opts.store_path.empty()) {
    std::fprintf(stderr,
                 "unp_query: --build and --store are exclusive (--build "
                 "queries the store it just wrote)\n");
    return false;
  }
  return true;
}

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// Run the shared campaign pipeline once and persist it as a store.
void build_store(const Options& opts) {
  sim::CampaignConfig config;
  config.seed = opts.seed;
  analysis::ScanProfileSink scan;
  analysis::StreamingExtractor extractor(opts.extraction);
  const auto t0 = std::chrono::steady_clock::now();
  const bench::StreamStats acquire = bench::stream_campaign(
      config, opts.extraction, {&scan, &extractor}, opts.threads);
  const analysis::ExtractionResult extraction = extractor.finish();
  store::write_store(opts.build_path, extraction, scan, acquire.fingerprint);
  std::fprintf(stderr,
               "unp_query: built %s  (%llu faults, fingerprint %016llx, "
               "%.1f ms, stream %s)\n",
               opts.build_path.c_str(),
               static_cast<unsigned long long>(extraction.faults.size()),
               static_cast<unsigned long long>(acquire.fingerprint),
               ms_since(t0), acquire.from_cache ? "cache" : "simulated");
}

int run_query(const Options& opts) {
  // Validate the request before building or opening anything: a rejected
  // request must never leave a half-done scan (or a fresh store build)
  // behind the exit-2.
  const bench::QueryRequest req = bench::parse_request(opts.request_tokens);

  if (!opts.build_path.empty()) {
    build_store(opts);
    // --build alone is a complete command; queries ride along if given.
    if (!req.any_query_action) return 0;
  }
  const std::string store_path =
      opts.store_path.empty() ? opts.build_path : opts.store_path;

  const auto t_open = std::chrono::steady_clock::now();
  const store::StoreReader reader = store::StoreReader::open(store_path);
  const double open_ms = ms_since(t_open);

  std::unique_ptr<ThreadPool> pool;
  if (opts.threads > 1) pool = std::make_unique<ThreadPool>(opts.threads);
  const store::ScanOptions scan_options{pool.get(), true, nullptr};

  store::ScanStats stats;
  const auto t_scan = std::chrono::steady_clock::now();
  bench::render_request(reader, req, scan_options, stdout, &stats);
  const double scan_ms = ms_since(t_scan);

  if (opts.stats) {
    std::fprintf(stderr, "\n== unp_query: scan stats ==\n");
    std::fprintf(stderr, "store      : %s  (fingerprint %016llx, %llu rows, "
                         "open %.1f ms)\n",
                 store_path.c_str(),
                 static_cast<unsigned long long>(reader.fingerprint()),
                 static_cast<unsigned long long>(reader.rows_total()),
                 open_ms);
    std::fprintf(stderr, "predicate  : %s\n", req.query.describe().c_str());
    std::fprintf(stderr, "segments   : %zu total, %zu pruned, %zu scanned%s\n",
                 stats.segments_total, stats.segments_pruned,
                 stats.segments_scanned,
                 req.no_prune ? "  (pruning off)" : "");
    std::fprintf(stderr, "rows       : %llu scanned, %llu matched\n",
                 static_cast<unsigned long long>(stats.rows_scanned),
                 static_cast<unsigned long long>(stats.rows_matched));
    std::fprintf(stderr, "scan       : %9.1f ms  (%zu threads)\n", scan_ms,
                 opts.threads);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  if (!parse_args(argc, argv, opts)) return 2;
  try {
    return run_query(opts);
  } catch (const ContractViolation& e) {
    // Covers store::QueryError (invalid request, with the offending field),
    // telemetry::DecodeError (corrupt store/cache bytes, with byte offset)
    // and any violated pipeline contract.
    std::fprintf(stderr, "unp_query: fatal: %s\n", e.what());
    return 2;
  }
}
