// Quickstart: simulate one month of the unprotected cluster, extract the
// independent faults, and print the numbers a reliability engineer would
// look at first.
//
// This walks the library's central pipeline:
//   CampaignConfig -> run_campaign_streaming -> record stream
//                  -> StreamingExtractor -> FaultRecords
//                     ScanProfileSink    -> scan totals
//                  -> metrics / regime / resilience policies
#include <cstdio>

#include "analysis/bitstats.hpp"
#include "analysis/extraction.hpp"
#include "analysis/metrics.hpp"
#include "analysis/regime.hpp"
#include "analysis/streaming_extractor.hpp"
#include "resilience/quarantine.hpp"
#include "sim/campaign.hpp"

int main() {
  using namespace unp;

  // 1. Configure a short campaign: September 2015, when the weak-bit nodes
  //    were active.  Everything else keeps the calibrated defaults.
  sim::CampaignConfig config;
  config.seed = 7;
  config.window.start = from_civil_utc({2015, 9, 1, 0, 0, 0});
  config.window.end = from_civil_utc({2015, 10, 1, 0, 0, 0});

  std::printf("running a 30-day campaign over %d candidate nodes...\n",
              cluster::kStudyNodeSlots);
  // 2. Stream the campaign's records into two sinks: the extractor turns
  //    raw logs into independent faults (Section II-C rules), the scan
  //    profile totals the hours and terabyte-hours scanned.
  analysis::StreamingExtractor extractor;
  analysis::ScanProfileSink scan;
  (void)sim::run_campaign_streaming(config, {&extractor, &scan},
                                    sim::default_campaign_threads());
  const analysis::ExtractionResult extraction = extractor.finish();

  const analysis::HeadlineStats stats = analysis::headline_stats(
      scan.total_monitored_hours(), scan.total_terabyte_hours(),
      scan.monitored_nodes(), scan.window(), extraction);
  std::printf("\n-- campaign summary ------------------------------------\n");
  std::printf("monitored nodes      : %d\n", stats.monitored_nodes);
  std::printf("node-hours scanned   : %.0f\n", stats.monitored_node_hours);
  std::printf("terabyte-hours       : %.0f\n", stats.terabyte_hours);
  std::printf("raw ERROR logs       : %llu\n",
              static_cast<unsigned long long>(stats.raw_logs));
  std::printf("independent faults   : %llu\n",
              static_cast<unsigned long long>(stats.independent_faults));

  // 3. Who is failing?  Direction and spatial concentration.
  const analysis::DirectionStats direction =
      analysis::direction_stats(extraction.faults);
  std::printf("\n-- corruption character --------------------------------\n");
  std::printf("bit flips 1->0       : %.1f%%\n",
              100.0 * direction.one_to_zero_fraction());

  const analysis::TopNodeSeries top =
      analysis::top_node_series(extraction.faults, config.window);
  for (std::size_t k = 0; k < top.nodes.size(); ++k) {
    std::printf("top node %zu           : %s (%llu faults)\n", k + 1,
                cluster::node_name(top.nodes[k]).c_str(),
                static_cast<unsigned long long>(top.node_totals[k]));
  }
  std::printf("all other nodes      : %llu faults\n",
              static_cast<unsigned long long>(top.rest_total));

  // 4. Regimes and a quarantine what-if.
  const analysis::AutoRegime regimes = analysis::classify_regime_excluding_loudest(
      extraction.faults, config.window);
  std::printf("\n-- regimes (loudest node excluded) ---------------------\n");
  std::printf("normal days          : %llu (MTBF %.1f h)\n",
              static_cast<unsigned long long>(regimes.regime.normal_days),
              regimes.regime.normal_mtbf_hours);
  std::printf("degraded days        : %llu (MTBF %.2f h)\n",
              static_cast<unsigned long long>(regimes.regime.degraded_days),
              regimes.regime.degraded_mtbf_hours);

  resilience::QuarantineConfig quarantine;
  quarantine.period_days = 10;
  if (regimes.excluded) quarantine.excluded_nodes.push_back(*regimes.excluded);
  const resilience::QuarantineOutcome outcome = resilience::simulate_quarantine(
      extraction.faults, config.window, quarantine);
  std::printf("\n-- 10-day quarantine what-if ---------------------------\n");
  std::printf("errors reaching users: %llu (was %llu)\n",
              static_cast<unsigned long long>(outcome.counted_errors),
              static_cast<unsigned long long>(outcome.counted_errors +
                                              outcome.suppressed_errors));
  std::printf("system MTBF          : %.1f h\n", outcome.system_mtbf_hours);
  std::printf("availability lost    : %.3f%%\n", 100.0 * outcome.availability_loss);
  return 0;
}
