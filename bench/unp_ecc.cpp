// ECC evaluation engine driver: exhaustive upset enumeration and fault-
// population replay over the pluggable code set (src/ecc).
//
// Modes (combinable; at least one is required):
//
//   --exhaustive K   enumerate EVERY error pattern of weight 1..K over each
//                    selected code's codeword and tabulate the verdicts —
//                    the code's complete multi-bit-upset characterization
//                    (a default-menu code beyond the pattern ceiling is
//                    listed as skipped; a --code beyond it exits 2);
//   --population     replay the campaign's extracted fault masks through
//                    each code, tallied per corruption-multiplicity class
//                    (faults come from --store, else the live pipeline);
//   --sweep          shorthand for the canonical comparison: the default
//                    code set, --exhaustive 3 plus --population.
//
// All tallies are additive u64 counters over deterministic enumeration
// orders, so output is bit-identical for any --threads value (asserted by
// tests/ecc and bench_perf_ecc).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "analysis/streaming_extractor.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "ecc/engine.hpp"
#include "ecc/registry.hpp"
#include "store/reader.hpp"
#include "util/campaign_cache.hpp"
#include "util/cli_args.hpp"
#include "util/figures.hpp"

namespace {

using namespace unp;

struct Options {
  std::vector<std::string> codes;  ///< empty = default sweep set
  int exhaustive_weight = 0;       ///< 0 = exhaustive mode off
  bool population = false;
  std::string store_path;
  std::uint64_t seed = 42;
  std::size_t threads = sim::default_campaign_threads();
  analysis::ExtractionConfig extraction;
  bool live_flags_used = false;
};

void usage(std::FILE* out) {
  std::fprintf(
      out,
      "usage: unp_ecc [options]\n"
      "  --code SPEC        evaluate SPEC; repeatable (default: the full\n"
      "                     sweep set).  Specs: secded72 | chipkill |\n"
      "                     hamming:D | hsiao:D[/K] | bch:D/T |\n"
      "                     large:512B|1KB|4KB[/T]\n"
      "  --exhaustive K     enumerate all error patterns of weight 1..K\n"
      "                     (an intractable pattern count refuses a --code\n"
      "                     and skips a default-menu code)\n"
      "  --population       replay extracted fault masks through each code\n"
      "  --sweep            default codes, --exhaustive 3 + --population\n"
      "  --store PATH       fault source for --population: a UNPF store\n"
      "                     (default: the live campaign pipeline)\n"
      "  --seed S           campaign seed for the live source (default 42)\n"
      "  --threads T        worker threads (default: hardware concurrency)\n"
      "  --cache-dir DIR    campaign cache directory (sets UNP_CACHE_DIR)\n"
      "  --merge-window S   fault merge window in seconds (default %lld)\n",
      static_cast<long long>(analysis::ExtractionConfig{}.merge_window_s));
}

bool parse_args(int argc, char** argv, Options& opts) {
  const bench::CliParser cli("unp_ecc", argc, argv);
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--code") == 0) {
      const char* v = cli.next_value(i, "--code");
      if (!v) return false;
      std::string error;
      if (ecc::make_code(v, &error) == nullptr) {
        std::fprintf(stderr, "unp_ecc: %s\n", error.c_str());
        return false;
      }
      opts.codes.emplace_back(v);
    } else if (std::strcmp(arg, "--exhaustive") == 0) {
      long k = 0;
      if (!cli.long_in(i, "--exhaustive", 1, 64, k)) return false;
      opts.exhaustive_weight = static_cast<int>(k);
    } else if (std::strcmp(arg, "--population") == 0) {
      opts.population = true;
    } else if (std::strcmp(arg, "--sweep") == 0) {
      if (opts.exhaustive_weight == 0) opts.exhaustive_weight = 3;
      opts.population = true;
    } else if (std::strcmp(arg, "--store") == 0) {
      const char* v = cli.next_value(i, "--store");
      if (!v) return false;
      opts.store_path = v;
    } else if (std::strcmp(arg, "--seed") == 0) {
      if (!cli.u64(i, "--seed", opts.seed)) return false;
      opts.live_flags_used = true;
    } else if (std::strcmp(arg, "--threads") == 0) {
      long n = 0;
      if (!cli.long_in(i, "--threads", 1, bench::CliParser::kNoUpperBound, n))
        return false;
      opts.threads = static_cast<std::size_t>(n);
    } else if (std::strcmp(arg, "--cache-dir") == 0) {
      const char* v = cli.next_value(i, "--cache-dir");
      if (!v) return false;
      setenv("UNP_CACHE_DIR", v, 1);
      opts.live_flags_used = true;
    } else if (std::strcmp(arg, "--merge-window") == 0) {
      long n = 0;
      if (!cli.long_in(i, "--merge-window", 0, bench::CliParser::kNoUpperBound,
                       n))
        return false;
      opts.extraction.merge_window_s = n;
      opts.live_flags_used = true;
    } else if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      usage(stdout);
      std::exit(0);
    } else {
      std::fprintf(stderr, "unp_ecc: unknown option '%s'\n", arg);
      usage(stderr);
      return false;
    }
  }
  if (opts.exhaustive_weight == 0 && !opts.population) {
    std::fprintf(stderr,
                 "unp_ecc: nothing to do — pass --exhaustive K, --population, "
                 "or --sweep\n");
    usage(stderr);
    return false;
  }
  if (!opts.population && !opts.store_path.empty()) {
    std::fprintf(stderr,
                 "unp_ecc: --store supplies the --population fault source; "
                 "pass --population (or --sweep) with it\n");
    return false;
  }
  if (!opts.store_path.empty() && opts.live_flags_used) {
    std::fprintf(stderr,
                 "unp_ecc: --store replays a prebuilt store; --seed, "
                 "--merge-window and --cache-dir configure the live pipeline "
                 "and cannot apply to it\n");
    return false;
  }
  if (opts.population) {
    // Population replay embeds 32-bit scanner masks in the data field;
    // refuse a narrower code before the campaign is acquired.
    for (const std::string& spec : opts.codes) {
      const int data_bits = ecc::make_code(spec)->geometry().data_bits;
      if (data_bits < 32) {
        std::fprintf(stderr,
                     "unp_ecc: --population replays 32-bit fault masks; "
                     "code %s has only %d data bits (needs >= 32)\n",
                     spec.c_str(), data_bits);
        return false;
      }
    }
  }
  return true;
}

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// Workload ceiling for --exhaustive: enumerating beyond this many patterns
/// for one code is refused with the estimate instead of running for hours.
/// A code named with --code is refused outright (exit 2); a code from the
/// default menu is reported as skipped and the run goes on.
constexpr std::uint64_t kMaxExhaustivePatterns = 2'000'000'000ULL;

int run_exhaustive(const std::vector<std::unique_ptr<ecc::Code>>& codes,
                   int max_weight, bool skip_over_limit, ThreadPool& pool) {
  bench::print_header(
      "ECC evaluation engine - exhaustive multi-bit-upset enumeration",
      "every C(n,k) error pattern per code for k<=" +
          std::to_string(max_weight) +
          "; verdict = real decode vs injected truth");

  for (const auto& code : codes) {
    const ecc::CodeGeometry geom = code->geometry();
    if (max_weight > geom.codeword_bits) {
      std::fprintf(stderr,
                   "unp_ecc: refusing exhaustive K=%d for %s: its codeword "
                   "has only %d bits (K must be <= %d)\n",
                   max_weight, std::string(code->name()).c_str(),
                   geom.codeword_bits, geom.codeword_bits);
      return 2;
    }
    std::uint64_t workload = 0;
    for (int k = 1; k <= max_weight; ++k) {
      const std::uint64_t patterns = ecc::binomial(geom.codeword_bits, k);
      workload = patterns == UINT64_MAX ? UINT64_MAX
                                        : std::max(workload + patterns, workload);
    }
    if (workload > kMaxExhaustivePatterns) {
      if (skip_over_limit) {
        std::printf("%s  skipped (%llu patterns > limit %llu)\n\n",
                    std::string(code->name()).c_str(),
                    static_cast<unsigned long long>(workload),
                    static_cast<unsigned long long>(kMaxExhaustivePatterns));
        continue;
      }
      std::fprintf(stderr,
                   "unp_ecc: refusing exhaustive K=%d for %s: ~%llu patterns "
                   "(limit %llu); lower K or pick a shorter code\n",
                   max_weight, std::string(code->name()).c_str(),
                   static_cast<unsigned long long>(workload),
                   static_cast<unsigned long long>(kMaxExhaustivePatterns));
      return 2;
    }

    const auto t0 = std::chrono::steady_clock::now();
    const ecc::ExhaustiveResult result =
        ecc::evaluate_exhaustive(*code, max_weight, pool);
    const double run_ms = ms_since(t0);

    std::printf("%s  (n=%d, data=%d, overhead %.1f%%, guarantees %d/%d)\n",
                result.code.c_str(), geom.codeword_bits, geom.data_bits,
                100.0 * geom.overhead_fraction(), geom.guaranteed_correct,
                geom.guaranteed_detect);
    TextTable table({"Weight", "Patterns", "Correct", "Miscorrect", "Detected",
                     "SDC", "Silent"});
    for (const auto& w : result.weights) {
      table.add_row(
          {std::to_string(w.weight), format_count(w.patterns),
           format_count(w.counts.correct),
           format_count(w.counts.miscorrect),
           format_count(w.counts.detect_only),
           format_count(w.counts.sdc),
           format_fixed(100.0 *
                                   static_cast<double>(w.counts.silent()) /
                                   static_cast<double>(w.patterns),
                               4) +
               "%"});
    }
    std::printf("%s\n", table.render().c_str());
    std::fprintf(stderr, "exhaustive %-14s : %9.1f ms  (%llu patterns)\n",
                 result.code.c_str(), run_ms,
                 static_cast<unsigned long long>(result.total_patterns()));
  }
  return 0;
}

int run(const Options& opts) {
  std::vector<std::unique_ptr<ecc::Code>> codes;
  const std::vector<std::string>& specs =
      opts.codes.empty() ? ecc::default_code_specs() : opts.codes;
  for (const auto& spec : specs) codes.push_back(ecc::make_code(spec));

  ThreadPool pool(opts.threads);

  if (opts.exhaustive_weight > 0) {
    const int rc = run_exhaustive(codes, opts.exhaustive_weight,
                                  opts.codes.empty(), pool);
    if (rc != 0) return rc;
  }

  if (!opts.population) return 0;

  // --- Acquire the fault population: store replay or the live pipeline. ----
  analysis::ExtractionResult extraction;
  const auto t_acquire = std::chrono::steady_clock::now();
  if (!opts.store_path.empty()) {
    const store::StoreReader reader = store::StoreReader::open(opts.store_path);
    extraction = reader.extraction_result(&pool);
  } else {
    sim::CampaignConfig config;
    config.seed = opts.seed;
    analysis::StreamingExtractor extractor(opts.extraction);
    bench::stream_campaign(config, opts.extraction, {&extractor}, opts.threads);
    extraction = extractor.finish();
  }
  const double acquire_ms = ms_since(t_acquire);

  bench::print_header(
      "ECC evaluation engine - fault-population replay",
      "the campaign's extracted corruption masks decoded by each code; "
      "outcomes per corruption-multiplicity class");

  std::vector<Word> masks;
  masks.reserve(extraction.faults.size());
  for (const auto& f : extraction.faults) masks.push_back(f.flip_mask());

  const auto t_replay = std::chrono::steady_clock::now();
  for (const auto& code : codes) {
    const ecc::PopulationResult result =
        ecc::evaluate_population(*code, masks, pool);
    const ecc::VerdictCounts total = result.total();
    std::printf("%s : %llu faults -> %llu correct, %llu miscorrect, "
                "%llu detected, %llu sdc  (silent %.4f%%)\n",
                result.code.c_str(),
                static_cast<unsigned long long>(result.faults),
                static_cast<unsigned long long>(total.correct),
                static_cast<unsigned long long>(total.miscorrect),
                static_cast<unsigned long long>(total.detect_only),
                static_cast<unsigned long long>(total.sdc),
                100.0 * result.silent_fraction());
    for (int c = 0; c < ecc::kPopulationClassCount; ++c) {
      const auto& counts = result.by_class[static_cast<std::size_t>(c)];
      if (counts.total() == 0) continue;
      std::printf("  %-8s : %llu faults, %llu silent\n",
                  ecc::to_string(static_cast<ecc::PopulationClass>(c)),
                  static_cast<unsigned long long>(counts.total()),
                  static_cast<unsigned long long>(counts.silent()));
    }
  }
  const double replay_ms = ms_since(t_replay);

  std::fprintf(stderr, "\n== unp_ecc: timings ==\n");
  std::fprintf(stderr, "population acquire (%s)   : %9.1f ms  (%zu faults)\n",
               opts.store_path.empty() ? "live" : "store", acquire_ms,
               extraction.faults.size());
  std::fprintf(stderr, "population replay (%zu codes)  : %9.1f ms\n",
               codes.size(), replay_ms);

  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  if (!parse_args(argc, argv, opts)) return 2;
  try {
    return run(opts);
  } catch (const ContractViolation& e) {  // includes store::DecodeError
    std::fprintf(stderr, "unp_ecc: fatal: %s\n", e.what());
    return 2;
  }
}
