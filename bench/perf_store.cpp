// Performance gate: columnar-store queries vs cached re-extraction.
//
// Without a store, every figure-level question replays the cached campaign
// (25M+ raw records) through the streaming extractor, as unp_report does,
// even though the answer only needs the ~10^4 extracted faults.  This bench
// builds a UNPF store once (filling the cache if it is cold), then
// measures, per queried figure:
//
//   re-extract  - replay the cache into a StreamingExtractor + compute;
//   store scan  - open the store + scan the query's columns + compute.
//
// Gates (non-zero exit on failure):
//
//   1. total store-scan latency >= 5x faster than total re-extraction;
//   2. zone-map pruning: a selective query decodes fewer segments than the
//      full scan, returns the identical row set, and is not slower.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "analysis/bitstats.hpp"
#include "analysis/extraction.hpp"
#include "analysis/metrics.hpp"
#include "analysis/regime.hpp"
#include "analysis/streaming_extractor.hpp"
#include "common/thread_pool.hpp"
#include "sim/campaign.hpp"
#include "store/builder.hpp"
#include "store/reader.hpp"
#include "util/campaign_cache.hpp"

namespace {

using namespace unp;

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

volatile double g_sink = 0.0;
void consume(double v) { g_sink = g_sink + v; }

struct FigureQuery {
  const char* name;
  store::Query query;  ///< fault subset the figure actually consumes
  void (*compute)(analysis::FaultView, const CampaignWindow&);
};

store::Query multibit_query() {
  store::Query q;
  q.min_bits = 2;
  return q;
}

const FigureQuery kQueries[] = {
    {"fig03_errors_grid", store::Query{},
     [](analysis::FaultView faults, const CampaignWindow&) {
       consume(analysis::errors_grid(faults).sum());
     }},
    {"fig05_hourly", store::Query{},
     [](analysis::FaultView faults, const CampaignWindow&) {
       consume(static_cast<double>(
           analysis::hour_of_day_profile(faults).total(12)));
     }},
    {"tab1_multibit", multibit_query(),
     [](analysis::FaultView faults, const CampaignWindow&) {
       consume(
           static_cast<double>(analysis::multibit_patterns(faults).size()));
     }},
    {"fig11_multibit_daily", multibit_query(),
     [](analysis::FaultView faults, const CampaignWindow&) {
       consume(static_cast<double>(faults.size()));
     }},
    {"fig13_regime", store::Query{},
     [](analysis::FaultView faults, const CampaignWindow& window) {
       consume(analysis::classify_regime_excluding_loudest(faults, window)
                   .regime.normal_mtbf_hours);
     }},
};

}  // namespace

int main() {
  bench::print_header(
      "perf_store - columnar fault store vs cached re-extraction",
      "figure queries answered from the UNPF store >= 5x faster than "
      "replay+extract; zone-map pruning scans fewer segments for equal "
      "results");

  if (bench::default_cache_path().empty()) {
    std::printf("campaign cache disabled (UNP_CAMPAIGN_CACHE=off); the\n"
                "re-extraction emulation needs the cache - nothing to "
                "compare.\n");
    return 0;
  }

  const std::size_t threads = sim::default_campaign_threads();
  const std::string store_path = bench::default_cache_path() + ".perf.unpf";
  const sim::CampaignConfig config{};

  {  // Build the store once; this pass also warms the cache, so the
     // re-extraction side measures its steady state (not timed by a gate).
    const auto t0 = std::chrono::steady_clock::now();
    analysis::ScanProfileSink scan;
    analysis::StreamingExtractor extractor;
    const bench::StreamStats acquire = bench::stream_campaign(
        config, analysis::ExtractionConfig{}, {&scan, &extractor}, threads);
    const analysis::ExtractionResult extraction = extractor.finish();
    store::write_store(store_path, extraction, scan, acquire.fingerprint);
    std::printf("store build (%s)        : %9.1f ms  (%llu faults)\n",
                acquire.from_cache ? "warm cache" : "cold cache",
                ms_since(t0),
                static_cast<unsigned long long>(extraction.faults.size()));
  }

  ThreadPool pool(threads);

  // --- Gate 1: queried-figure latency. ------------------------------------
  std::printf("\n%-22s %14s %14s\n", "figure query", "re-extract ms",
              "store ms");
  double reextract_total = 0.0;
  double store_total = 0.0;
  for (const FigureQuery& fq : kQueries) {
    const auto t_a = std::chrono::steady_clock::now();
    analysis::StreamingExtractor extractor;
    if (!bench::stream_campaign(config, analysis::ExtractionConfig{},
                                {&extractor}, threads)
             .from_cache) {
      std::printf("cache replay failed; aborting comparison\n");
      return 1;
    }
    const analysis::ExtractionResult extraction = extractor.finish();
    std::vector<analysis::FaultRecord> subset;
    for (const analysis::FaultRecord& f : extraction.faults) {
      if (fq.query.matches(
              static_cast<std::uint32_t>(cluster::node_index(f.node)),
              f.first_seen, f.flipped_bits()))
        subset.push_back(f);
    }
    fq.compute(subset, config.window);
    const double a_ms = ms_since(t_a);

    const auto t_b = std::chrono::steady_clock::now();
    const store::StoreReader reader = store::StoreReader::open(store_path);
    const std::vector<analysis::FaultRecord> rows =
        reader.materialize(fq.query, {&pool, true});
    fq.compute(rows, reader.window());
    const double b_ms = ms_since(t_b);

    reextract_total += a_ms;
    store_total += b_ms;
    std::printf("%-22s %14.1f %14.1f\n", fq.name, a_ms, b_ms);
  }
  std::printf("%-22s %14.1f %14.1f\n", "total", reextract_total, store_total);
  const double speedup =
      store_total > 0.0 ? reextract_total / store_total : 0.0;
  const bool gate1 = speedup >= 5.0;
  std::printf("speedup                : %13.2fx %s\n", speedup,
              gate1 ? "(>= 5x target met)" : "(below 5x target)");

  // --- Gate 2: pruning scans fewer segments for identical results. --------
  const store::StoreReader reader = store::StoreReader::open(store_path);
  store::Query selective;  // one blade, multi-bit only: prunable on two axes
  selective.blade = 30;
  selective.min_bits = 2;

  store::ScanStats pruned_stats;
  store::ScanStats full_stats;
  double pruned_best = 1e300;
  double full_best = 1e300;
  bool rows_equal = true;
  constexpr int kIterations = 5;
  for (int i = 0; i < kIterations; ++i) {
    const auto t_p = std::chrono::steady_clock::now();
    const std::vector<analysis::FaultRecord> pruned =
        reader.materialize(selective, {&pool, true}, &pruned_stats);
    pruned_best = std::min(pruned_best, ms_since(t_p));
    const auto t_f = std::chrono::steady_clock::now();
    const std::vector<analysis::FaultRecord> full =
        reader.materialize(selective, {&pool, false}, &full_stats);
    full_best = std::min(full_best, ms_since(t_f));
    rows_equal = rows_equal && pruned == full;
  }
  std::printf("\npruned scan            : %zu/%zu segments, best %.2f ms\n",
              pruned_stats.segments_scanned, pruned_stats.segments_total,
              pruned_best);
  std::printf("full scan              : %zu/%zu segments, best %.2f ms\n",
              full_stats.segments_scanned, full_stats.segments_total,
              full_best);
  const bool fewer_segments =
      pruned_stats.segments_scanned < full_stats.segments_scanned;
  const bool not_slower = pruned_best <= full_best;
  std::printf("pruning                : %s rows, %s segments, %s\n",
              rows_equal ? "identical" : "DIVERGENT",
              fewer_segments ? "fewer" : "NOT fewer",
              not_slower ? "not slower" : "SLOWER");
  const bool gate2 = rows_equal && fewer_segments && not_slower;

  std::remove(store_path.c_str());
  if (!gate1 || !gate2) {
    std::printf("\nPERF GATE FAILED (%s%s%s)\n", gate1 ? "" : "latency",
                !gate1 && !gate2 ? ", " : "", gate2 ? "" : "pruning");
    return 1;
  }
  std::printf("\nperf gates met\n");
  return 0;
}
