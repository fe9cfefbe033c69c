// Sharded campaign driver: the command-line face of the shard fabric.
//
// Three modes, one per fabric stage:
//
//   --shards K --shard I --out DIR
//       Simulate shard I of a K-way partition and write the self-describing
//       shard archive DIR/shard-I-of-K.unph (UNPH header + UNPS record
//       stream, sim/shard.hpp ownership rule).  Run once per I to produce a
//       complete partition; the K processes are independent and can run on
//       different machines.
//
//   --merge --out FILE SHARD...
//       Streaming K-way merge of one partition's shard archives into a
//       monolithic UNPS stream, byte-identical to the stream a single
//       un-sharded run would spill (telemetry/shard_merge.hpp).
//
//   --aggregate SHARD...
//       Merge the shard record streams in memory and print the full report.
//       The fault-level analyzers run hierarchically: faults are analyzed in
//       K per-partition sink instances whose serialized states are folded
//       into one aggregate via FaultSink::serialize_state/merge_state, so
//       the output also exercises the sink-state algebra end to end.  The
//       stdout is byte-identical to `unp_report --all` for the same seed.
//
// Report/merge output goes to stdout/--out; status goes to stderr.  Exit
// status: 0 on success, 2 on bad usage or unreadable/corrupt input.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "analysis/fault_sink.hpp"
#include "analysis/metrics.hpp"
#include "analysis/streaming_extractor.hpp"
#include "sim/campaign.hpp"
#include "sim/shard.hpp"
#include "store/builder.hpp"
#include "store/handle.hpp"
#include "telemetry/shard_merge.hpp"
#include "util/campaign_cache.hpp"
#include "util/cli_args.hpp"
#include "util/report_sections.hpp"

namespace {

using namespace unp;

enum class Mode { kNone, kSimulate, kMerge, kAggregate };

struct Options {
  Mode mode = Mode::kNone;
  long shards = 0;  ///< K (simulate mode)
  long shard = -1;  ///< I (simulate mode)
  std::string out;  ///< simulate: directory; merge: output file
  std::string store_out;  ///< aggregate: also distill into a UNPF store
  std::vector<std::string> inputs;  ///< shard archives (merge/aggregate)
  std::uint64_t seed = 42;
  std::size_t threads = sim::default_campaign_threads();
  analysis::ExtractionConfig extraction;
};

void usage(std::FILE* out) {
  std::fprintf(out,
               "usage: unp_campaign --shards K --shard I --out DIR [options]\n"
               "       unp_campaign --merge --out FILE SHARD...\n"
               "       unp_campaign --aggregate SHARD...\n"
               "  --shards K         partition the campaign into K shards\n"
               "  --shard I          simulate shard I (0-based) of the "
               "partition\n"
               "  --out PATH         output directory (simulate) or file "
               "(merge)\n"
               "  --merge            merge shard archives into one UNPS "
               "stream\n"
               "  --aggregate        merge + hierarchical analysis; prints "
               "the\n"
               "                     full report (byte-identical to "
               "unp_report --all)\n"
               "  --store-out PATH   aggregate: also distill the merged "
               "faults +\n"
               "                     scan profile into a queryable UNPF "
               "store\n"
               "  --seed S           campaign seed (default 42)\n"
               "  --threads T        worker threads (default: hardware "
               "concurrency)\n"
               "  --merge-window S   fault merge window in seconds (default "
               "%lld)\n",
               static_cast<long long>(analysis::ExtractionConfig{}.merge_window_s));
}

bool set_mode(Options& opts, Mode mode) {
  if (opts.mode != Mode::kNone && opts.mode != mode) {
    std::fprintf(stderr,
                 "unp_campaign: --shards/--shard, --merge and --aggregate "
                 "select exclusive modes\n");
    return false;
  }
  opts.mode = mode;
  return true;
}

bool parse_args(int argc, char** argv, Options& opts) {
  const bench::CliParser cli("unp_campaign", argc, argv);
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--shards") == 0) {
      if (!set_mode(opts, Mode::kSimulate)) return false;
      if (!cli.long_in(i, "--shards", 1, std::numeric_limits<int>::max(),
                       opts.shards))
        return false;
    } else if (std::strcmp(arg, "--shard") == 0) {
      if (!set_mode(opts, Mode::kSimulate)) return false;
      if (!cli.long_in(i, "--shard", 0, std::numeric_limits<int>::max(),
                       opts.shard))
        return false;
    } else if (std::strcmp(arg, "--merge") == 0) {
      if (!set_mode(opts, Mode::kMerge)) return false;
    } else if (std::strcmp(arg, "--aggregate") == 0) {
      if (!set_mode(opts, Mode::kAggregate)) return false;
    } else if (std::strcmp(arg, "--out") == 0) {
      const char* v = cli.next_value(i, "--out");
      if (!v) return false;
      opts.out = v;
    } else if (std::strcmp(arg, "--store-out") == 0) {
      if (!set_mode(opts, Mode::kAggregate)) return false;
      const char* v = cli.next_value(i, "--store-out");
      if (!v) return false;
      opts.store_out = v;
    } else if (std::strcmp(arg, "--seed") == 0) {
      if (!cli.u64(i, "--seed", opts.seed)) return false;
    } else if (std::strcmp(arg, "--threads") == 0) {
      if (!cli.threads(i, opts.threads)) return false;
    } else if (std::strcmp(arg, "--merge-window") == 0) {
      long n = 0;
      if (!cli.long_in(i, "--merge-window", 0, bench::CliParser::kNoUpperBound,
                       n))
        return false;
      opts.extraction.merge_window_s = n;
    } else if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      usage(stdout);
      std::exit(0);
    } else if (arg[0] == '-') {
      std::fprintf(stderr, "unp_campaign: unknown option '%s'\n", arg);
      usage(stderr);
      return false;
    } else {
      opts.inputs.emplace_back(arg);
    }
  }
  switch (opts.mode) {
    case Mode::kNone:
      std::fprintf(stderr, "unp_campaign: no mode selected\n");
      usage(stderr);
      return false;
    case Mode::kSimulate:
      if (opts.shards < 1 || opts.shard < 0) {
        std::fprintf(stderr,
                     "unp_campaign: simulate mode needs both --shards and "
                     "--shard\n");
        return false;
      }
      if (opts.shard >= opts.shards) {
        std::fprintf(stderr,
                     "unp_campaign: --shard must be < --shards, got %ld of "
                     "%ld\n",
                     opts.shard, opts.shards);
        return false;
      }
      if (opts.out.empty()) {
        std::fprintf(stderr,
                     "unp_campaign: simulate mode needs --out DIR\n");
        return false;
      }
      if (!opts.inputs.empty()) {
        std::fprintf(stderr,
                     "unp_campaign: simulate mode takes no shard-archive "
                     "arguments\n");
        return false;
      }
      return true;
    case Mode::kMerge:
      if (opts.out.empty()) {
        std::fprintf(stderr, "unp_campaign: --merge needs --out FILE\n");
        return false;
      }
      [[fallthrough]];
    case Mode::kAggregate:
      if (opts.inputs.empty()) {
        std::fprintf(stderr,
                     "unp_campaign: no shard archives given\n");
        return false;
      }
      return true;
  }
  return false;
}

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// Stage 1: simulate one shard into DIR/shard-I-of-K.unph.
int run_simulate(const Options& opts) {
  sim::CampaignConfig config;
  config.seed = opts.seed;
  const sim::ShardSpec spec{static_cast<int>(opts.shards),
                            static_cast<int>(opts.shard)};

  char name[64];
  std::snprintf(name, sizeof name, "shard-%d-of-%d.unph", spec.index,
                spec.count);
  const std::string path = opts.out + "/" + name;
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) {
    std::fprintf(stderr, "unp_campaign: cannot open '%s' for writing\n",
                 path.c_str());
    return 2;
  }

  // All shards of one campaign stamp the ensemble fingerprint (the
  // monolithic cache key), which is what lets the merge reader verify the
  // K files belong together.
  telemetry::ShardHeader header;
  header.shard_count = static_cast<std::uint32_t>(spec.count);
  header.shard_index = static_cast<std::uint32_t>(spec.index);
  header.fingerprint = bench::campaign_fingerprint(config, opts.extraction);
  telemetry::write_shard_header(os, header);

  const auto t0 = std::chrono::steady_clock::now();
  telemetry::ArchiveWriter writer(os);
  const sim::CampaignSummary summary =
      sim::run_campaign_shard(config, spec, {&writer}, opts.threads);
  const double sim_ms = ms_since(t0);
  os.flush();
  if (!os) {
    std::fprintf(stderr, "unp_campaign: write to '%s' failed\n", path.c_str());
    return 2;
  }

  std::fprintf(stderr,
               "unp_campaign: shard %d/%d -> %s  (%llu frames, %zu owned "
               "nodes, fingerprint %016llx, %.1f ms)\n",
               spec.index, spec.count, path.c_str(),
               static_cast<unsigned long long>(writer.frames_written()),
               summary.accounting.size(),
               static_cast<unsigned long long>(header.fingerprint), sim_ms);
  return 0;
}

/// Stage 2: stream-merge the shard archives into one monolithic UNPS file.
int run_merge(const Options& opts) {
  std::ofstream os(opts.out, std::ios::binary | std::ios::trunc);
  if (!os) {
    std::fprintf(stderr, "unp_campaign: cannot open '%s' for writing\n",
                 opts.out.c_str());
    return 2;
  }
  const auto t0 = std::chrono::steady_clock::now();
  telemetry::merge_shard_archives(opts.inputs, os);
  const double merge_ms = ms_since(t0);
  os.flush();
  if (!os) {
    std::fprintf(stderr, "unp_campaign: write to '%s' failed\n",
                 opts.out.c_str());
    return 2;
  }
  std::fprintf(stderr, "unp_campaign: merged %zu shards -> %s  (%.1f ms)\n",
               opts.inputs.size(), opts.out.c_str(), merge_ms);
  return 0;
}

/// Stage 3: merged replay + hierarchical sink aggregation + full report.
int run_aggregate(const Options& opts) {
  // One pass over the merged record stream feeds scan totals and fault
  // extraction, exactly like unp_report's live pipeline.
  telemetry::ShardMergeReader reader(opts.inputs);
  analysis::ScanProfileSink scan;
  analysis::StreamingExtractor extractor(opts.extraction);
  telemetry::FanOutSink fan;
  fan.add(scan);
  fan.add(extractor);
  const auto t_drain = std::chrono::steady_clock::now();
  reader.drain(fan);
  const double drain_ms = ms_since(t_drain);

  const analysis::ExtractionResult extraction = extractor.finish();
  const CampaignWindow& window = scan.window();

  // Hierarchical fan-out: partition the faults by node, run a private
  // analyzer set per partition, then fold the serialized partial states
  // into one aggregate — the same algebra a distributed reduction over the
  // K shard machines would use.  Faults of one node never split across
  // partitions, and each partition preserves canonical fault order.
  bool want_all[bench::kSectionCount];
  for (int s = 0; s < bench::kSectionCount; ++s) want_all[s] = true;
  const analysis::FaultStreamContext ctx{window};
  const int parts = reader.shard_count();

  const auto t_agg = std::chrono::steady_clock::now();
  bench::ReportAnalyzers total(want_all);
  for (analysis::FaultSink* sink : total.sinks()) sink->begin_faults(ctx);
  for (int p = 0; p < parts; ++p) {
    bench::ReportAnalyzers part(want_all);
    for (analysis::FaultSink* sink : part.sinks()) sink->begin_faults(ctx);
    for (const analysis::FaultRecord& fault : extraction.faults) {
      if (cluster::node_index(fault.node) % parts != p) continue;
      for (analysis::FaultSink* sink : part.sinks()) sink->on_fault(fault);
    }
    const std::span<analysis::FaultSink* const> from = part.sinks();
    const std::span<analysis::FaultSink* const> into = total.sinks();
    for (std::size_t k = 0; k < from.size(); ++k)
      into[k]->merge_state(from[k]->serialize_state());
  }
  for (analysis::FaultSink* sink : total.sinks()) sink->end_faults();
  const double agg_ms = ms_since(t_agg);

  bench::ReportInputs inputs;
  inputs.window = window;
  inputs.hours = &scan.hours_grid();
  inputs.terabyte_hours = &scan.terabyte_hours_grid();
  inputs.daily_terabyte_hours = scan.daily_terabyte_hours();
  inputs.total_hours = scan.total_monitored_hours();
  inputs.total_terabyte_hours = scan.total_terabyte_hours();
  inputs.monitored_nodes = scan.monitored_nodes();
  inputs.extraction = &extraction;
  total.render(inputs);

  std::fprintf(stderr, "\n== unp_campaign: aggregate timings ==\n");
  std::fprintf(stderr,
               "merged replay (%d shards)       : %9.1f ms  (%llu frames, "
               "fingerprint %016llx)\n",
               parts, drain_ms,
               static_cast<unsigned long long>(reader.frames_merged()),
               static_cast<unsigned long long>(reader.fingerprint()));
  std::fprintf(stderr,
               "hierarchical sink aggregation   : %9.1f ms  (%llu faults, "
               "%zu sinks x %d partitions)\n",
               agg_ms, static_cast<unsigned long long>(extraction.faults.size()),
               total.sinks().size(), parts);

  if (!opts.store_out.empty()) {
    // Distill the merged campaign into a queryable UNPF store and prove the
    // round trip through the shared StoreHandle open path (the same handle
    // unp_query / unp_serve would share).
    const auto t_store = std::chrono::steady_clock::now();
    store::write_store(opts.store_out, extraction, scan, reader.fingerprint());
    const std::shared_ptr<const store::StoreHandle> handle =
        store::StoreHandle::open(opts.store_out);
    const double store_ms = ms_since(t_store);
    std::fprintf(stderr,
                 "store distill -> %s : %9.1f ms  (%llu rows, "
                 "fingerprint %016llx)\n",
                 opts.store_out.c_str(), store_ms,
                 static_cast<unsigned long long>(handle->rows_total()),
                 static_cast<unsigned long long>(handle->fingerprint()));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  if (!parse_args(argc, argv, opts)) return 2;
  try {
    switch (opts.mode) {
      case Mode::kSimulate:
        return run_simulate(opts);
      case Mode::kMerge:
        return run_merge(opts);
      case Mode::kAggregate:
        return run_aggregate(opts);
      case Mode::kNone:
        break;
    }
  } catch (const ContractViolation& e) {
    // Covers telemetry::DecodeError (corrupt/mismatched shard archives) and
    // any violated pipeline contract.
    std::fprintf(stderr, "unp_campaign: fatal: %s\n", e.what());
    return 2;
  }
  return 2;
}
