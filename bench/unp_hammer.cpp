// Rowhammer subsystem driver: mapping reverse engineering, hammer-enabled
// campaigns, and the closed detect-and-quarantine loop.
//
// Modes (exactly one):
//
//   --solve     run the DRAMA-style MappingSolver against the synthetic
//               timing oracle for each requested geometry (default: the
//               whole mapping menu) and compare the recovered bank
//               functions and row mask against the ground-truth mapping;
//               exits 1 if any geometry fails to recover exactly;
//   --campaign  run a hammer-enabled campaign and print the Rowhammer
//               victim-row census (the same `--ext hammer` section
//               unp_report prints) over its extracted faults;
//   --mitigate  run the closed loop: detect spatially clustered victim
//               rows per node, retire them, re-simulate, and score the
//               retired set against kRowhammer ground truth.
//
// Report sections go to stdout; timings go to stderr.  Malformed input
// exits 2 via the shared strict CliParser contract.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "analysis/hammer_census.hpp"
#include "analysis/streaming_extractor.hpp"
#include "cluster/topology.hpp"
#include "common/civil_time.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "dram/mapping/solver.hpp"
#include "policy/hammer.hpp"
#include "sim/campaign.hpp"
#include "util/campaign_cache.hpp"
#include "util/cli_args.hpp"
#include "util/figures.hpp"

namespace {

using namespace unp;

struct Options {
  bool solve = false;
  bool campaign = false;
  bool mitigate = false;
  std::vector<std::string> geometries;  ///< --solve targets; empty = menu
  std::uint64_t seed = 42;
  std::uint64_t solver_seed = 1;
  int days = 30;
  int fraction_pct = 10;  ///< hammered-node fraction, percent
  int episodes = 2;       ///< hammer episodes per hammered node (mean)
  std::size_t threads = sim::default_campaign_threads();
  analysis::ExtractionConfig extraction;
};

void usage(std::FILE* out) {
  std::fprintf(
      out,
      "usage: unp_hammer --solve | --campaign | --mitigate [options]\n"
      "  --solve            recover each geometry's bank functions and row\n"
      "                     mask from timing alone; exit 1 on any mismatch\n"
      "  --campaign         hammer-enabled campaign + victim-row census\n"
      "  --mitigate         closed loop: detect, retire, re-simulate, score\n"
      "  --geometry NAME    restrict --solve to NAME; repeatable\n"
      "  --seed S           campaign seed (default 42)\n"
      "  --solver-seed S    probe-sequence seed for --solve (default 1)\n"
      "  --days N           campaign length in days from 2015-09-01 "
      "(default 30)\n"
      "  --fraction-pct P   hammered-node fraction in percent (default 10)\n"
      "  --episodes N       mean hammer episodes per hammered node "
      "(default 2)\n"
      "  --threads T        worker threads (default: hardware concurrency)\n"
      "  --cache-dir DIR    campaign cache directory (sets UNP_CACHE_DIR)\n"
      "  --merge-window S   fault merge window in seconds (default %lld)\n",
      static_cast<long long>(analysis::ExtractionConfig{}.merge_window_s));
}

bool parse_args(int argc, char** argv, Options& opts) {
  const bench::CliParser cli("unp_hammer", argc, argv);
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--solve") == 0) {
      opts.solve = true;
    } else if (std::strcmp(arg, "--campaign") == 0) {
      opts.campaign = true;
    } else if (std::strcmp(arg, "--mitigate") == 0) {
      opts.mitigate = true;
    } else if (std::strcmp(arg, "--geometry") == 0) {
      const char* v = cli.next_value(i, "--geometry");
      if (!v) return false;
      bool known = false;
      for (const std::string& name : dram::mapping::mapping_menu()) {
        if (name == v) known = true;
      }
      if (!known) {
        cli.reject_choice("--geometry", v, dram::mapping::mapping_menu());
        return false;
      }
      opts.geometries.emplace_back(v);
    } else if (std::strcmp(arg, "--seed") == 0) {
      if (!cli.u64(i, "--seed", opts.seed)) return false;
    } else if (std::strcmp(arg, "--solver-seed") == 0) {
      if (!cli.u64(i, "--solver-seed", opts.solver_seed)) return false;
    } else if (std::strcmp(arg, "--days") == 0) {
      long n = 0;
      if (!cli.long_in(i, "--days", 1, 366, n)) return false;
      opts.days = static_cast<int>(n);
    } else if (std::strcmp(arg, "--fraction-pct") == 0) {
      long n = 0;
      if (!cli.long_in(i, "--fraction-pct", 0, 100, n)) return false;
      opts.fraction_pct = static_cast<int>(n);
    } else if (std::strcmp(arg, "--episodes") == 0) {
      long n = 0;
      if (!cli.long_in(i, "--episodes", 0, 100, n)) return false;
      opts.episodes = static_cast<int>(n);
    } else if (std::strcmp(arg, "--threads") == 0) {
      if (!cli.threads(i, opts.threads)) return false;
    } else if (std::strcmp(arg, "--cache-dir") == 0) {
      const char* v = cli.next_value(i, "--cache-dir");
      if (!v) return false;
      setenv("UNP_CACHE_DIR", v, 1);
    } else if (std::strcmp(arg, "--merge-window") == 0) {
      long n = 0;
      if (!cli.long_in(i, "--merge-window", 0, bench::CliParser::kNoUpperBound,
                       n))
        return false;
      opts.extraction.merge_window_s = n;
    } else if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      usage(stdout);
      std::exit(0);
    } else {
      std::fprintf(stderr, "unp_hammer: unknown option '%s'\n", arg);
      usage(stderr);
      return false;
    }
  }
  const int modes = (opts.solve ? 1 : 0) + (opts.campaign ? 1 : 0) +
                    (opts.mitigate ? 1 : 0);
  if (modes != 1) {
    std::fprintf(stderr,
                 "unp_hammer: exactly one of --solve, --campaign, --mitigate "
                 "is required\n");
    usage(stderr);
    return false;
  }
  if (!opts.geometries.empty() && !opts.solve) {
    std::fprintf(stderr, "unp_hammer: --geometry only applies to --solve\n");
    return false;
  }
  return true;
}

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// The campaign the --campaign and --mitigate modes share.
sim::CampaignConfig hammer_campaign(const Options& opts) {
  sim::CampaignConfig config;
  config.seed = opts.seed;
  config.window.start = from_civil_utc({2015, 9, 1, 0, 0, 0});
  config.window.end =
      config.window.start + static_cast<TimePoint>(opts.days) * kSecondsPerDay;
  config.faults.enable_hammer = true;
  config.faults.hammer.hammered_node_fraction = opts.fraction_pct / 100.0;
  config.faults.hammer.episodes_per_node_mean = opts.episodes;
  return config;
}

int run_solve(const Options& opts) {
  bench::print_header(
      "Mapping reverse engineering - DRAMA-style timing attack",
      "bank XOR functions and row masks recovered from access timing alone; "
      "recovered model must equal the oracle's canonical basis exactly");

  std::vector<std::string> targets = opts.geometries;
  if (targets.empty()) targets = dram::mapping::mapping_menu();

  dram::mapping::SolverConfig solver_config;
  solver_config.seed = opts.solver_seed;
  const dram::mapping::MappingSolver solver(solver_config);

  TextTable table({"Geometry", "Bank fns", "Row mask", "Verify", "Accesses",
                   "Exact"});
  bool all_exact = true;
  const auto t0 = std::chrono::steady_clock::now();
  for (const std::string& name : targets) {
    const dram::mapping::DramMapping mapping(
        dram::mapping::make_mapping_config(name));
    dram::mapping::AccessTimingOracle oracle(mapping, {}, opts.solver_seed);
    const dram::mapping::SolveResult result =
        solver.solve(oracle, mapping.config().address_bits);
    const bool exact = result.bank_functions ==
                           mapping.canonical_bank_functions() &&
                       result.row_mask == mapping.config().row_mask;
    all_exact = all_exact && exact;
    char row_mask[32];
    std::snprintf(row_mask, sizeof row_mask, "%#llx",
                  static_cast<unsigned long long>(result.row_mask));
    table.add_row({name, std::to_string(result.bank_functions.size()),
                   row_mask, format_fixed(result.verify_agreement, 3),
                   format_count(result.measurements),
                   exact ? "yes" : "NO"});
  }
  const double solve_ms = ms_since(t0);
  std::printf("%s\n", table.render().c_str());
  std::printf("all geometries recovered exactly: %s\n",
              all_exact ? "yes" : "NO");
  std::fprintf(stderr, "\n== unp_hammer: timings ==\n");
  std::fprintf(stderr, "solve (%zu geometries)            : %9.1f ms\n",
               targets.size(), solve_ms);
  return all_exact ? 0 : 1;
}

int run_census(const Options& opts) {
  const sim::CampaignConfig config = hammer_campaign(opts);
  analysis::StreamingExtractor extractor(opts.extraction);
  const bench::StreamStats acquire = bench::stream_campaign(
      config, opts.extraction, {&extractor}, opts.threads);
  const auto t_finish = std::chrono::steady_clock::now();
  const analysis::ExtractionResult extraction = extractor.finish();
  const double finish_ms = ms_since(t_finish);

  // The census passes `unp_report --ext hammer` registers, on the pool.
  analysis::HammerCensusSet census;
  const std::vector<analysis::FaultSink*> sinks = census.sinks();
  std::unique_ptr<ThreadPool> pool;
  if (opts.threads > 1) pool = std::make_unique<ThreadPool>(opts.threads);
  const auto t_census = std::chrono::steady_clock::now();
  analysis::run_fault_sinks(extraction.faults, {config.window}, sinks,
                            pool.get());
  const double census_ms = ms_since(t_census);

  bench::print_ext_hammer(census);

  std::fprintf(stderr, "\n== unp_hammer: timings ==\n");
  std::fprintf(stderr, "campaign cache %s  fingerprint %016llx\n",
               acquire.cache_path.empty() ? "OFF "
               : acquire.from_cache      ? "HIT "
                                         : "MISS",
               static_cast<unsigned long long>(acquire.fingerprint));
  std::fprintf(stderr, "record stream                    : %9.1f ms\n",
               acquire.acquire_ms);
  std::fprintf(stderr, "extraction finish                : %9.1f ms  (%llu "
               "faults)\n",
               finish_ms,
               static_cast<unsigned long long>(extraction.faults.size()));
  std::fprintf(stderr, "victim-row census                : %9.1f ms  (%zu "
               "sinks, %zu thr)\n",
               census_ms, sinks.size(), opts.threads);
  return 0;
}

int run_mitigate(const Options& opts) {
  policy::HammerLoopConfig loop;
  loop.campaign = hammer_campaign(opts);
  loop.extraction = opts.extraction;
  loop.threads = opts.threads;
  const auto t0 = std::chrono::steady_clock::now();
  const policy::HammerMitigationResult result =
      policy::run_hammer_mitigation(loop);
  const double loop_ms = ms_since(t0);

  bench::print_header(
      "Closed-loop hammer mitigation (detect, retire, re-simulate)",
      "spatially clustered same-row flips trigger page retirement; retired "
      "rows scored against kRowhammer ground truth");

  for (const auto& node : result.excluded_nodes) {
    std::printf("excluded node                  : %s\n",
                cluster::node_name(node).c_str());
  }
  std::printf("true victim rows (ground truth): %llu\n",
              static_cast<unsigned long long>(result.true_victim_rows));
  std::printf("rows retired                   : %llu\n",
              static_cast<unsigned long long>(result.rows_retired));
  std::printf("  true victims                 : %llu\n",
              static_cast<unsigned long long>(result.retired_true));
  std::printf("  collateral (dense regions)   : %llu\n",
              static_cast<unsigned long long>(result.retired_collateral));
  std::printf("  spurious                     : %llu\n",
              static_cast<unsigned long long>(result.retired_spurious));
  std::printf("recall                         : %.3f\n", result.recall);
  std::printf("observed faults open -> closed : %llu -> %llu (%llu absorbed)\n",
              static_cast<unsigned long long>(result.open_observed),
              static_cast<unsigned long long>(result.closed_observed),
              static_cast<unsigned long long>(result.absorbed_faults));
  std::printf("max re-simulation rounds       : %d\n", result.max_rounds_used);

  std::printf("\nretired rows (first 10):\n");
  std::size_t shown = 0;
  for (const auto& r : result.retired) {
    if (shown >= 10) break;
    const char* kind = r.kind == policy::RetiredRow::Kind::kTrue ? "true"
                       : r.kind == policy::RetiredRow::Kind::kCollateral
                           ? "collateral"
                           : "spurious";
    std::printf("  %s bank %2u row %6llu : %s\n",
                cluster::node_name(r.node).c_str(), r.bank,
                static_cast<unsigned long long>(r.row), kind);
    ++shown;
  }

  std::fprintf(stderr, "\n== unp_hammer: timings ==\n");
  std::fprintf(stderr, "closed loop (no cache; %zu thr)   : %9.1f ms\n",
               opts.threads, loop_ms);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  if (!parse_args(argc, argv, opts)) return 2;
  try {
    if (opts.solve) return run_solve(opts);
    if (opts.campaign) return run_census(opts);
    return run_mitigate(opts);
  } catch (const ContractViolation& e) {
    std::fprintf(stderr, "unp_hammer: fatal: %s\n", e.what());
    return 2;
  }
}
