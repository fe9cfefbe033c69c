// Unified figure driver: every paper figure/table from ONE pass.
//
// This is the one front door for the paper's figures and tables.  It
// acquires the record stream once (ScanProfileSink + StreamingExtractor
// riding the same replay), fans the fault-level analyzers out on the thread
// pool, and prints any requested subset of sections through the shared
// bench::print_* renderers.  A section's bytes do not depend on which other
// sections are selected: --all is the concatenation of every single-section
// run in canonical order (CI cmp's the two).
//
// --store PATH skips simulation and extraction entirely: faults and the scan
// profile replay out of a prebuilt UNPF columnar store (see unp_query
// --build), through the same renderers, producing byte-identical sections in
// a fraction of the time.
//
// Report sections go to stdout; the observability footer (per-stage and
// per-analyzer wall clock) goes to stderr so section output stays clean.
// Exit status: 0 on success, 2 on bad usage or unreadable/corrupt input.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "analysis/fault_sink.hpp"
#include "analysis/metrics.hpp"
#include "analysis/streaming_extractor.hpp"
#include "common/thread_pool.hpp"
#include "sim/campaign.hpp"
#include "store/reader.hpp"
#include "util/campaign_cache.hpp"
#include "util/cli_args.hpp"
#include "util/report_sections.hpp"

namespace {

using namespace unp;
using bench::kSectionCount;
using bench::Section;

struct Options {
  bool want[kSectionCount] = {};
  std::uint64_t seed = 42;
  bool hammer = false;  ///< enable the Rowhammer generator (live pipeline)
  std::size_t threads = sim::default_campaign_threads();
  analysis::ExtractionConfig extraction;
  std::string store_path;  ///< non-empty: replay a UNPF store
  bool live_flags_used = false;  ///< --seed/--merge-window/--cache-dir seen
};

void usage(std::FILE* out) {
  std::fprintf(out,
               "usage: unp_report [options]\n"
               "  --all              print every section (default when none "
               "requested)\n"
               "  --headline         Section III-B headline statistics\n"
               "  --fig N            figure N (1-13); repeatable\n"
               "  --tab1             Table I multi-bit census\n"
               "  --ext NAME         extension: temporal | markov | alignment "
               "| ecc | hammer; repeatable\n"
               "  --hammer           enable the Rowhammer fault generator in "
               "the live campaign\n"
               "  --store PATH       replay a prebuilt UNPF fault store "
               "instead of\n"
               "                     simulating (excludes --seed, "
               "--merge-window,\n"
               "                     --cache-dir; see unp_query --build)\n"
               "  --seed S           campaign seed (default 42)\n"
               "  --threads T        worker threads (default: hardware "
               "concurrency)\n"
               "  --cache-dir DIR    campaign cache directory (sets "
               "UNP_CACHE_DIR)\n"
               "  --merge-window S   fault merge window in seconds (default "
               "%lld)\n",
               static_cast<long long>(analysis::ExtractionConfig{}.merge_window_s));
}

bool parse_args(int argc, char** argv, Options& opts) {
  bool any_section = false;
  const bench::CliParser cli("unp_report", argc, argv);
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--all") == 0) {
      for (int s = 0; s < kSectionCount; ++s) opts.want[s] = true;
      any_section = true;
    } else if (std::strcmp(arg, "--headline") == 0) {
      opts.want[bench::kHeadline] = true;
      any_section = true;
    } else if (std::strcmp(arg, "--tab1") == 0) {
      opts.want[bench::kTab1] = true;
      any_section = true;
    } else if (std::strcmp(arg, "--fig") == 0) {
      long n = 0;
      if (!cli.long_in(i, "--fig", 1, 13, n)) return false;
      opts.want[bench::kFigSections[n - 1]] = true;
      any_section = true;
    } else if (std::strcmp(arg, "--ext") == 0) {
      const char* v = cli.next_value(i, "--ext");
      if (!v) return false;
      const bench::ExtSection* ext = bench::find_ext_section(v);
      if (ext == nullptr) {
        std::vector<std::string> names;
        for (const bench::ExtSection& e : bench::ext_sections())
          names.emplace_back(e.name);
        cli.reject_choice("--ext", v, names);
        return false;
      }
      opts.want[ext->section] = true;
      any_section = true;
    } else if (std::strcmp(arg, "--store") == 0) {
      const char* v = cli.next_value(i, "--store");
      if (!v) return false;
      opts.store_path = v;
    } else if (std::strcmp(arg, "--seed") == 0) {
      if (!cli.u64(i, "--seed", opts.seed)) return false;
      opts.live_flags_used = true;
    } else if (std::strcmp(arg, "--hammer") == 0) {
      opts.hammer = true;
      opts.live_flags_used = true;
    } else if (std::strcmp(arg, "--threads") == 0) {
      if (!cli.threads(i, opts.threads)) return false;
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
      std::fprintf(stderr, "unp_report: unknown option '%s'\n", arg);
      usage(stderr);
      return false;
    }
  }
  if (!opts.store_path.empty() && opts.live_flags_used) {
    std::fprintf(stderr,
                 "unp_report: --store replays a prebuilt store; --seed, "
                 "--merge-window and --cache-dir configure the live pipeline "
                 "and cannot apply to it\n");
    return false;
  }
  if (!any_section)
    for (int s = 0; s < kSectionCount; ++s) opts.want[s] = true;
  return true;
}

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

void print_sink_timings(const std::vector<const char*>& labels,
                        const std::vector<analysis::FaultSinkTiming>& timings) {
  for (std::size_t i = 0; i < timings.size(); ++i) {
    std::fprintf(stderr, "  %-22s : %9.2f ms\n", labels[i],
                 timings[i].milliseconds);
  }
}

/// Render the wanted sections to stdout; returns the wall time it took.
double render_sections(bench::ReportAnalyzers& analyzers,
                       const bench::ReportInputs& inputs) {
  const auto t_render = std::chrono::steady_clock::now();
  analyzers.render(inputs);
  return ms_since(t_render);
}

void print_render_timing(const Options& opts, double render_ms) {
  std::fprintf(stderr, "report render (%td sections)     : %9.1f ms\n",
               std::count(std::begin(opts.want), std::end(opts.want), true),
               render_ms);
}

/// Store-backed path: faults + scan profile replay from a UNPF store.
int run_store_report(const Options& opts) {
  // One parse, shared bytes: the handle owns the mapping; the reader is a
  // throwaway view over it (any number could share this handle).
  const auto t_open = std::chrono::steady_clock::now();
  const std::shared_ptr<const store::StoreHandle> handle =
      store::StoreHandle::open(opts.store_path);
  const store::StoreReader reader(handle);
  const double open_ms = ms_since(t_open);

  std::unique_ptr<ThreadPool> pool;
  if (opts.threads > 1) pool = std::make_unique<ThreadPool>(opts.threads);

  const auto t_scan = std::chrono::steady_clock::now();
  const analysis::ExtractionResult extraction =
      reader.extraction_result(pool.get());
  const double scan_ms = ms_since(t_scan);

  bench::ReportAnalyzers analyzers(opts.want);
  const auto t_fanout = std::chrono::steady_clock::now();
  const std::vector<analysis::FaultSinkTiming> timings =
      analysis::run_fault_sinks(extraction.faults, {reader.window()},
                                analyzers.sinks(), pool.get());
  const double fanout_ms = ms_since(t_fanout);

  const store::StoredScanProfile& profile = reader.scan_profile();
  bench::ReportInputs inputs;
  inputs.window = reader.window();
  inputs.hours = &profile.hours;
  inputs.terabyte_hours = &profile.terabyte_hours;
  inputs.daily_terabyte_hours = profile.daily_terabyte_hours;
  inputs.total_hours = profile.total_hours;
  inputs.total_terabyte_hours = profile.total_terabyte_hours;
  inputs.monitored_nodes = profile.monitored_nodes;
  inputs.extraction = &extraction;
  const double render_ms = render_sections(analyzers, inputs);

  std::fprintf(stderr, "\n== unp_report: store-replay timings ==\n");
  std::fprintf(stderr, "store %s  fingerprint %016llx\n",
               opts.store_path.c_str(),
               static_cast<unsigned long long>(reader.fingerprint()));
  std::fprintf(stderr, "store open (header+directory)   : %9.1f ms\n", open_ms);
  std::fprintf(stderr,
               "fault scan (%zu segments)        : %9.1f ms  (%llu faults)\n",
               reader.zones().size(), scan_ms,
               static_cast<unsigned long long>(extraction.faults.size()));
  std::fprintf(stderr, "analyzer fan-out (%zu sinks, %zu thr) : %7.1f ms\n",
               analyzers.sinks().size(), opts.threads, fanout_ms);
  print_sink_timings(analyzers.labels(), timings);
  print_render_timing(opts, render_ms);
  return 0;
}

int run_report(const Options& opts) {
  sim::CampaignConfig config;
  config.seed = opts.seed;
  config.faults.enable_hammer = opts.hammer;

  // --- Pass 1: one record stream feeds scan totals AND fault extraction. ---
  analysis::ScanProfileSink scan;
  analysis::StreamingExtractor extractor(opts.extraction);
  const bench::StreamStats acquire = bench::stream_campaign(
      config, opts.extraction, {&scan, &extractor}, opts.threads);

  const auto t_extract = std::chrono::steady_clock::now();
  const analysis::ExtractionResult extraction = extractor.finish();
  const double finish_ms = ms_since(t_extract);
  const CampaignWindow& window = scan.window();

  // --- Pass 2: fan the fault-level analyzers out on the pool. -------------
  bench::ReportAnalyzers analyzers(opts.want);
  std::unique_ptr<ThreadPool> pool;
  if (opts.threads > 1 && analyzers.sinks().size() > 1)
    pool = std::make_unique<ThreadPool>(opts.threads);
  const auto t_fanout = std::chrono::steady_clock::now();
  const std::vector<analysis::FaultSinkTiming> timings = analysis::run_fault_sinks(
      extraction.faults, {window}, analyzers.sinks(), pool.get());
  const double fanout_ms = ms_since(t_fanout);

  // --- Render the requested sections in canonical report order. -----------
  bench::ReportInputs inputs;
  inputs.window = window;
  inputs.hours = &scan.hours_grid();
  inputs.terabyte_hours = &scan.terabyte_hours_grid();
  inputs.daily_terabyte_hours = scan.daily_terabyte_hours();
  inputs.total_hours = scan.total_monitored_hours();
  inputs.total_terabyte_hours = scan.total_terabyte_hours();
  inputs.monitored_nodes = scan.monitored_nodes();
  inputs.extraction = &extraction;
  const double render_ms = render_sections(analyzers, inputs);

  // --- Observability footer (stderr keeps section stdout byte-clean). -----
  std::fprintf(stderr, "\n== unp_report: one-pass timings ==\n");
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
  if (acquire.from_cache) {
    const telemetry::ReplayStats& replay = acquire.replay;
    std::fprintf(stderr,
                 "  %llu frames, %.1f MB of bodies; runs %llu decoded, "
                 "%llu only counted\n",
                 static_cast<unsigned long long>(replay.frames),
                 static_cast<double>(replay.body_bytes) / 1e6,
                 static_cast<unsigned long long>(replay.runs_decoded),
                 static_cast<unsigned long long>(replay.runs_counted));
  }
  std::fprintf(stderr, "extraction finish (filter+sort) : %9.1f ms  (%llu faults)\n",
               finish_ms,
               static_cast<unsigned long long>(extraction.faults.size()));
  std::fprintf(stderr, "analyzer fan-out (%zu sinks, %zu thr) : %7.1f ms\n",
               analyzers.sinks().size(), opts.threads, fanout_ms);
  print_sink_timings(analyzers.labels(), timings);
  print_render_timing(opts, render_ms);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  if (!parse_args(argc, argv, opts)) return 2;
  try {
    return opts.store_path.empty() ? run_report(opts) : run_store_report(opts);
  } catch (const ContractViolation& e) {
    // Covers telemetry::DecodeError (corrupt cache/store input) and any
    // violated pipeline contract: report and exit instead of aborting with
    // an uncaught-exception trace.
    std::fprintf(stderr, "unp_report: fatal: %s\n", e.what());
    return 2;
  }
}
