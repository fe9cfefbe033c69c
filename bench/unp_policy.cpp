// Online policy engine driver: quarantine / prediction / checkpoint policies
// evaluated live against the streaming campaign.
//
// Modes:
//
//   (default)      shadow-evaluate the selected policies (all three when
//                  none is named) in ONE campaign pass and print their
//                  outcome ledgers side by side;
//   --sweep        run the seven Table II quarantine periods as seven
//                  shadowed policies in one pass and print Table II through
//                  bench::print_tab2 — outcomes, and hence output, are
//                  bit-identical to the batch resilience::quarantine_sweep;
//   --closed-loop  actually actuate the threshold policy: quarantines cut
//                  scan sessions, the node is re-simulated, and the fleet
//                  report compares open- vs closed-loop observation.
//
// Report sections go to stdout; the observability footer (cache hit/miss,
// fingerprint, per-stage wall clock) goes to stderr.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "cluster/topology.hpp"
#include "common/civil_time.hpp"
#include "common/table.hpp"
#include "policy/builtin.hpp"
#include "policy/engine.hpp"
#include "policy/loop.hpp"
#include "sim/campaign.hpp"
#include "util/campaign_cache.hpp"
#include "util/cli_args.hpp"
#include "util/figures.hpp"

namespace {

using namespace unp;

struct Options {
  bool sweep = false;
  bool closed_loop = false;
  bool want_quarantine = false;
  bool want_predict = false;
  bool want_checkpoint = false;
  bool want_protection = false;
  int period_days = 30;
  std::uint64_t trigger_threshold = 3;
  std::uint64_t seed = 42;
  std::size_t threads = sim::default_campaign_threads();
  analysis::ExtractionConfig extraction;
};

void usage(std::FILE* out) {
  std::fprintf(
      out,
      "usage: unp_policy [options]\n"
      "  --policy NAME      shadow-evaluate NAME: quarantine | predict | "
      "checkpoint | protection; repeatable (default: all four)\n"
      "  --sweep            Table II: the seven quarantine periods as seven\n"
      "                     shadowed policies in one campaign pass\n"
      "  --closed-loop      actuate the threshold policy: cut scan plans,\n"
      "                     re-simulate, report open vs closed loop\n"
      "  --period N         quarantine period in days (default 30)\n"
      "  --trigger N        errors/day threshold that triggers quarantine "
      "(default 3)\n"
      "  --seed S           campaign seed (default 42)\n"
      "  --threads T        worker threads (default: hardware concurrency)\n"
      "  --cache-dir DIR    campaign cache directory (sets UNP_CACHE_DIR)\n"
      "  --merge-window S   fault merge window in seconds (default %lld)\n",
      static_cast<long long>(analysis::ExtractionConfig{}.merge_window_s));
}

bool parse_args(int argc, char** argv, Options& opts) {
  const bench::CliParser cli("unp_policy", argc, argv);
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--sweep") == 0) {
      opts.sweep = true;
    } else if (std::strcmp(arg, "--closed-loop") == 0) {
      opts.closed_loop = true;
    } else if (std::strcmp(arg, "--policy") == 0) {
      const char* v = cli.next_value(i, "--policy");
      if (!v) return false;
      if (std::strcmp(v, "quarantine") == 0) {
        opts.want_quarantine = true;
      } else if (std::strcmp(v, "predict") == 0) {
        opts.want_predict = true;
      } else if (std::strcmp(v, "checkpoint") == 0) {
        opts.want_checkpoint = true;
      } else if (std::strcmp(v, "protection") == 0) {
        opts.want_protection = true;
      } else {
        std::fprintf(stderr,
                     "unp_policy: --policy expects "
                     "quarantine|predict|checkpoint|protection, got '%s'\n",
                     v);
        return false;
      }
    } else if (std::strcmp(arg, "--period") == 0) {
      long n = 0;
      if (!cli.long_in(i, "--period", 0, bench::CliParser::kNoUpperBound, n))
        return false;
      opts.period_days = static_cast<int>(n);
    } else if (std::strcmp(arg, "--trigger") == 0) {
      if (!cli.u64(i, "--trigger", opts.trigger_threshold)) return false;
    } else if (std::strcmp(arg, "--seed") == 0) {
      if (!cli.u64(i, "--seed", opts.seed)) return false;
    } else if (std::strcmp(arg, "--threads") == 0) {
      long n = 0;
      if (!cli.long_in(i, "--threads", 1, bench::CliParser::kNoUpperBound, n))
        return false;
      opts.threads = static_cast<std::size_t>(n);
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
      std::fprintf(stderr, "unp_policy: unknown option '%s'\n", arg);
      usage(stderr);
      return false;
    }
  }
  if (opts.sweep && opts.closed_loop) {
    std::fprintf(stderr, "unp_policy: --sweep and --closed-loop are exclusive\n");
    return false;
  }
  if (!opts.want_quarantine && !opts.want_predict && !opts.want_checkpoint &&
      !opts.want_protection) {
    opts.want_quarantine = opts.want_predict = opts.want_checkpoint =
        opts.want_protection = true;
  }
  return true;
}

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

void print_shadow(const policy::EngineResult& result) {
  bench::print_header(
      "Online policy engine - shadow evaluation (one campaign pass)",
      "Table II quarantine + Section III-I prediction and checkpoint "
      "adaptation, run live against the record stream");

  for (const auto& node : result.excluded_nodes) {
    std::printf("excluded node                  : %s\n",
                cluster::node_name(node).c_str());
  }
  std::printf("\n");

  TextTable table({"Policy", "Errors", "Suppressed", "Entries",
                   "Node-days quarantined", "System MTBF (h)", "Actions"});
  for (const auto& out : result.outcomes) {
    table.add_row({out.policy_name, format_count(out.quarantine.counted_errors),
                   format_count(out.quarantine.suppressed_errors),
                   format_count(out.quarantine.quarantine_entries),
                   format_fixed(out.quarantine.node_days_quarantined, 0),
                   format_fixed(out.quarantine.system_mtbf_hours, 1),
                   format_count(out.actions_emitted)});
  }
  std::printf("%s\n", table.render().c_str());
  for (const auto& out : result.outcomes) {
    std::printf("%-22s : %s\n", out.policy_name.c_str(), out.report.c_str());
  }
}

void print_closed_loop(const policy::ClosedLoopResult& result) {
  bench::print_header(
      "Closed-loop policy campaign (quarantines actuate scan plans)",
      "the threshold policy's cuts remove real scan sessions; nodes are "
      "re-simulated until the controller converges");

  for (const auto& node : result.excluded_nodes) {
    std::printf("excluded node                  : %s\n",
                cluster::node_name(node).c_str());
  }
  std::printf("open-loop observed errors      : %llu\n",
              static_cast<unsigned long long>(result.open_loop_errors));
  std::printf("closed-loop observed errors    : %llu\n",
              static_cast<unsigned long long>(result.closed_loop_errors));
  std::printf("quarantine entries             : %llu\n",
              static_cast<unsigned long long>(result.quarantine_entries));
  std::printf("node-days quarantined          : %.0f\n",
              result.node_days_quarantined);
  std::printf("scan hours removed by cuts     : %.0f\n",
              static_cast<double>(result.scan_seconds_removed) / kSecondsPerHour);
  std::printf("availability loss              : %.3f%%\n",
              100.0 * result.availability_loss);
  std::printf("system MTBF open -> closed     : %.1f h -> %.1f h\n",
              result.open_mtbf_hours, result.closed_mtbf_hours);
  std::printf("degraded days (closed loop)    : %llu of %llu\n",
              static_cast<unsigned long long>(result.regime.degraded_days),
              static_cast<unsigned long long>(result.regime.degraded_days +
                                              result.regime.normal_days));
  std::printf("checkpoint waste static/causal : %.4f -> %.4f (%.1f%% less)\n",
              result.causal_static_waste, result.causal_adaptive_waste,
              result.causal_static_waste > 0.0
                  ? 100.0 * (1.0 - result.causal_adaptive_waste /
                                       result.causal_static_waste)
                  : 0.0);

  std::printf("\nactuated nodes (first 10):\n");
  std::size_t shown = 0;
  for (const auto& node : result.per_node) {
    if (node.actuations == 0 || shown >= 10) continue;
    std::printf("  %s : %llu -> %llu observed errors, %d actuations, %d rounds\n",
                cluster::node_name(node.node).c_str(),
                static_cast<unsigned long long>(node.open_faults),
                static_cast<unsigned long long>(node.closed_faults),
                node.actuations, node.rounds);
    ++shown;
  }
}

int run_policy(const Options& opts) {
  sim::CampaignConfig config;
  config.seed = opts.seed;

  if (opts.closed_loop) {
    policy::ClosedLoopConfig loop;
    loop.campaign = config;
    loop.extraction = opts.extraction;
    loop.controller.period_days = opts.period_days;
    loop.controller.trigger_threshold = opts.trigger_threshold;
    loop.threads = opts.threads;
    const auto t0 = std::chrono::steady_clock::now();
    const policy::ClosedLoopResult result = policy::run_closed_loop(loop);
    const double loop_ms = ms_since(t0);
    print_closed_loop(result);
    std::fprintf(stderr, "\n== unp_policy: timings ==\n");
    std::fprintf(stderr,
                 "closed loop (no cache; %zu thr)  : %9.1f ms  (%zu actuations)\n",
                 opts.threads, loop_ms, result.actuations.size());
    return 0;
  }

  policy::PolicyEngine::Config engine_config;
  engine_config.extraction = opts.extraction;
  policy::PolicyEngine engine(engine_config);

  std::vector<std::size_t> sweep_slots;
  const std::vector<int> sweep_periods{0, 5, 10, 15, 20, 25, 30};
  if (opts.sweep) {
    for (const int period : sweep_periods) {
      policy::ThresholdQuarantinePolicy::Config tq;
      tq.period_days = period;
      tq.trigger_threshold = opts.trigger_threshold;
      sweep_slots.push_back(engine.add_policy(
          std::make_unique<policy::ThresholdQuarantinePolicy>(tq)));
    }
  } else {
    if (opts.want_quarantine) {
      policy::ThresholdQuarantinePolicy::Config tq;
      tq.period_days = opts.period_days;
      tq.trigger_threshold = opts.trigger_threshold;
      engine.add_policy(std::make_unique<policy::ThresholdQuarantinePolicy>(tq));
    }
    if (opts.want_predict) {
      engine.add_policy(std::make_unique<policy::PredictiveQuarantinePolicy>());
    }
    if (opts.want_checkpoint) {
      engine.add_policy(std::make_unique<policy::AdaptiveCheckpointPolicy>());
    }
    if (opts.want_protection) {
      engine.add_policy(std::make_unique<policy::ProtectionSelectionPolicy>());
    }
  }

  const bench::StreamStats acquire =
      bench::stream_campaign(config, opts.extraction, {&engine}, opts.threads);
  const auto t_finish = std::chrono::steady_clock::now();
  const policy::EngineResult result = engine.finish();
  const double finish_ms = ms_since(t_finish);

  if (opts.sweep) {
    std::vector<resilience::QuarantineOutcome> sweep;
    for (const std::size_t slot : sweep_slots) {
      sweep.push_back(result.outcomes[slot].quarantine);
    }
    bench::print_tab2(sweep);
  } else {
    print_shadow(result);
  }

  std::fprintf(stderr, "\n== unp_policy: one-pass timings ==\n");
  std::fprintf(stderr, "campaign cache %s  fingerprint %016llx%s%s\n",
               acquire.cache_path.empty() ? "OFF "
               : acquire.from_cache      ? "HIT "
                                         : "MISS",
               static_cast<unsigned long long>(acquire.fingerprint),
               acquire.cache_path.empty() ? "" : "  ",
               acquire.cache_path.c_str());
  std::fprintf(stderr, "record stream (%s)%s : %9.1f ms\n",
               acquire.from_cache ? "cache replay" : "simulate+spill",
               acquire.from_cache ? "  " : "", acquire.acquire_ms);
  std::fprintf(stderr,
               "engine finish (%zu policies)     : %9.1f ms  (%llu faults)\n",
               result.outcomes.size(), finish_ms,
               static_cast<unsigned long long>(result.extraction.faults.size()));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  if (!parse_args(argc, argv, opts)) return 2;
  try {
    return run_policy(opts);
  } catch (const ContractViolation& e) {
    // Corrupt cache input or a violated pipeline contract: report and exit
    // instead of aborting with an uncaught-exception trace.
    std::fprintf(stderr, "unp_policy: fatal: %s\n", e.what());
    return 2;
  }
}
