// analyze_logs: the offline analysis pipeline over on-disk telemetry.
//
// This is the downstream-user workflow: collect scanner logs (from the real
// live_scan tool or an exported campaign), then run the paper's complete
// Section II-C + III analysis over them.
//
//   analyze_logs --export-archive camp.unps    # write the default campaign
//   analyze_logs --archive camp.unps           # analyze a UNPS stream
//   analyze_logs node1.log node2.log ...       # analyze text log files
//
// --archive reads any UNPS stream: an --export-archive file or the merged
// output of `unp_campaign --merge`.
//
// Text logs use the line format produced by live_scan / telemetry codec;
// each file may contain records of one node (host= field names it).
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "analysis/bitstats.hpp"
#include "analysis/grouping.hpp"
#include "analysis/metrics.hpp"
#include "analysis/regime.hpp"
#include "common/table.hpp"
#include "sim/campaign.hpp"
#include "telemetry/archive_io.hpp"
#include "telemetry/codec.hpp"

namespace {

using namespace unp;

void report(const telemetry::CampaignArchive& archive) {
  const analysis::ExtractionResult extraction = analysis::extract_faults(archive);
  const analysis::HeadlineStats stats =
      analysis::headline_stats(archive, extraction);

  std::printf("== headline =============================================\n");
  std::printf("nodes with data      : %d\n", stats.monitored_nodes);
  std::printf("monitored node-hours : %.1f\n", stats.monitored_node_hours);
  std::printf("terabyte-hours       : %.2f\n", stats.terabyte_hours);
  std::printf("raw ERROR logs       : %s\n",
              format_count(stats.raw_logs).c_str());
  if (!extraction.removed_nodes.empty()) {
    std::printf("pathological nodes removed:");
    for (const auto& n : extraction.removed_nodes) {
      std::printf(" %s", cluster::node_name(n).c_str());
    }
    std::printf(" (%.1f%% of raw logs)\n", 100.0 * extraction.removed_fraction());
  }
  std::printf("independent faults   : %s\n",
              format_count(stats.independent_faults).c_str());
  if (stats.independent_faults == 0) return;

  std::printf("\n== corruption character =================================\n");
  const analysis::DirectionStats dir =
      analysis::direction_stats(extraction.faults);
  const analysis::AdjacencyStats adj =
      analysis::adjacency_stats(extraction.faults);
  std::printf("bits flipped 1->0    : %.1f%%\n",
              100.0 * dir.one_to_zero_fraction());
  std::printf("multi-bit faults     : %s (consecutive %s / spread %s)\n",
              format_count(adj.multibit_faults).c_str(),
              format_count(adj.consecutive).c_str(),
              format_count(adj.non_adjacent).c_str());

  const auto patterns = analysis::multibit_patterns(extraction.faults);
  if (!patterns.empty()) {
    TextTable table({"Bits", "Expected", "Corrupted", "Occurrences", "Consecutive"});
    for (const auto& p : patterns) {
      table.add_row({std::to_string(p.bits), format_hex32(p.expected),
                     format_hex32(p.corrupted), std::to_string(p.occurrences),
                     p.consecutive ? "Yes" : "No"});
    }
    std::printf("\n%s", table.render().c_str());
  }

  std::printf("\n== spatial concentration ================================\n");
  const analysis::TopNodeSeries top =
      analysis::top_node_series(extraction.faults, archive.window());
  for (std::size_t k = 0; k < top.nodes.size(); ++k) {
    const analysis::NodePatternProfile profile =
        analysis::node_pattern_profile(extraction.faults, top.nodes[k]);
    std::printf("%s: %s faults, %s addresses%s\n",
                cluster::node_name(top.nodes[k]).c_str(),
                format_count(top.node_totals[k]).c_str(),
                format_count(profile.distinct_addresses).c_str(),
                profile.single_fixed_bit ? " [single fixed bit]" : "");
  }
  std::printf("all others: %s faults\n", format_count(top.rest_total).c_str());

  std::printf("\n== simultaneity =========================================\n");
  const auto groups = analysis::group_simultaneous(extraction.faults);
  const analysis::CoOccurrence co = analysis::count_co_occurrence(groups);
  std::printf("simultaneous corruptions : %s (widest %s bits)\n",
              format_count(co.simultaneous_corruptions).c_str(),
              format_count(co.max_bits_one_instant).c_str());

  std::printf("\n== regimes ==============================================\n");
  const analysis::AutoRegime regimes = analysis::classify_regime_excluding_loudest(
      extraction.faults, archive.window());
  std::printf("normal days %llu (MTBF %.1f h) / degraded days %llu (MTBF %.2f h)\n",
              static_cast<unsigned long long>(regimes.regime.normal_days),
              regimes.regime.normal_mtbf_hours,
              static_cast<unsigned long long>(regimes.regime.degraded_days),
              regimes.regime.degraded_mtbf_hours);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 3 && std::strcmp(argv[1], "--export-archive") == 0) {
    std::printf("simulating the default campaign...\n");
    const sim::CampaignResult& campaign = sim::default_campaign();
    std::ofstream os(argv[2], std::ios::binary | std::ios::trunc);
    telemetry::save_archive_stream(campaign.archive, os);
    std::printf("wrote %s\n", argv[2]);
    return 0;
  }
  if (argc >= 3 && std::strcmp(argv[1], "--archive") == 0) {
    report(telemetry::load_archive_stream(argv[2]));
    return 0;
  }
  if (argc >= 2 && argv[1][0] != '-') {
    telemetry::CampaignArchive archive;
    for (int i = 1; i < argc; ++i) {
      std::ifstream is(argv[i]);
      if (!is.good()) {
        std::fprintf(stderr, "cannot open %s\n", argv[i]);
        return 1;
      }
      const telemetry::NodeLog log = telemetry::read_node_log(is);
      // Route records into the archive by the host field of each class.
      const cluster::NodeId node =
          !log.starts().empty()       ? log.starts()[0].node
          : !log.error_runs().empty() ? log.error_runs()[0].first.node
          : !log.ends().empty()       ? log.ends()[0].node
                                      : cluster::NodeId{0, 1};
      archive.log(node) = log;
    }
    report(archive);
    return 0;
  }
  std::fprintf(stderr,
               "usage: analyze_logs --export-archive <file> | --archive <file> "
               "| <node.log> ...\n");
  return 2;
}
