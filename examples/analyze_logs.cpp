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
// output of `unp_campaign --merge`.  Either way the records stream through
// the extractor and the scan profile; no input is held whole.
//
// Text logs use the line format produced by live_scan / telemetry codec;
// each file holds the records of one node (the host= field of its first
// record names it).  A file with no records is skipped with a warning; two
// files for one node are an error.  A missing or corrupt input ends in a
// message and exit status 1.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <utility>

#include "analysis/bitstats.hpp"
#include "analysis/grouping.hpp"
#include "analysis/metrics.hpp"
#include "analysis/regime.hpp"
#include "analysis/streaming_extractor.hpp"
#include "common/require.hpp"
#include "common/table.hpp"
#include "sim/campaign.hpp"
#include "telemetry/archive_io.hpp"
#include "telemetry/codec.hpp"

namespace {

using namespace unp;

/// The two sinks every input streams through.
struct Analysis {
  analysis::StreamingExtractor extractor;
  analysis::ScanProfileSink scan;
  telemetry::FanOutSink fan;

  Analysis() {
    fan.add(extractor);
    fan.add(scan);
  }
};

void report(Analysis& in) {
  const analysis::ExtractionResult extraction = in.extractor.finish();
  const analysis::ScanProfileSink& scan = in.scan;
  const analysis::HeadlineStats stats = analysis::headline_stats(
      scan.total_monitored_hours(), scan.total_terabyte_hours(),
      scan.monitored_nodes(), scan.window(), extraction);

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
      analysis::top_node_series(extraction.faults, scan.window());
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
      extraction.faults, scan.window());
  std::printf("normal days %llu (MTBF %.1f h) / degraded days %llu (MTBF %.2f h)\n",
              static_cast<unsigned long long>(regimes.regime.normal_days),
              regimes.regime.normal_mtbf_hours,
              static_cast<unsigned long long>(regimes.regime.degraded_days),
              regimes.regime.degraded_mtbf_hours);
}

/// The node a text log's records belong to, or nullopt for a log with no
/// records.
std::optional<cluster::NodeId> log_node(const telemetry::NodeLog& log) {
  if (!log.starts().empty()) return log.starts()[0].node;
  if (!log.error_runs().empty()) return log.error_runs()[0].first.node;
  if (!log.ends().empty()) return log.ends()[0].node;
  if (!log.alloc_fails().empty()) return log.alloc_fails()[0].node;
  return std::nullopt;
}

/// Analyze text node logs: one node per file, fed in ascending node order.
int analyze_text_logs(int argc, char** argv) {
  std::map<int, telemetry::NodeLog> logs;  // by node index
  for (int i = 1; i < argc; ++i) {
    std::ifstream is(argv[i]);
    if (!is.good()) {
      std::fprintf(stderr, "cannot open %s\n", argv[i]);
      return 1;
    }
    telemetry::NodeLog log = telemetry::read_node_log(is);
    const std::optional<cluster::NodeId> node = log_node(log);
    if (!node) {
      std::fprintf(stderr, "warning: %s holds no records; skipped\n", argv[i]);
      continue;
    }
    if (!logs.try_emplace(cluster::node_index(*node), std::move(log)).second) {
      std::fprintf(stderr, "%s: a second log for node %s\n", argv[i],
                   cluster::node_name(*node).c_str());
      return 1;
    }
  }
  Analysis in;
  in.fan.begin_campaign(CampaignWindow{});
  for (const auto& [index, log] : logs) {
    const cluster::NodeId node = cluster::node_from_index(index);
    in.fan.begin_node(node);
    telemetry::replay_node_log(log, in.fan);
    in.fan.end_node(node);
  }
  in.fan.end_campaign();
  report(in);
  return 0;
}

int run(int argc, char** argv) {
  if (argc >= 3 && std::strcmp(argv[1], "--export-archive") == 0) {
    std::ofstream os(argv[2], std::ios::binary | std::ios::trunc);
    if (!os.good()) {
      std::fprintf(stderr, "cannot write %s\n", argv[2]);
      return 1;
    }
    std::printf("simulating the default campaign...\n");
    telemetry::ArchiveWriter writer(os);
    (void)sim::run_campaign_streaming(sim::CampaignConfig{}, {&writer},
                                      sim::default_campaign_threads());
    std::printf("wrote %s\n", argv[2]);
    return 0;
  }
  if (argc >= 3 && std::strcmp(argv[1], "--archive") == 0) {
    std::ifstream is(argv[2], std::ios::binary);
    if (!is.good()) {
      std::fprintf(stderr, "cannot open %s\n", argv[2]);
      return 1;
    }
    Analysis in;
    (void)telemetry::ArchiveReader(is).drain(in.fan);
    report(in);
    return 0;
  }
  if (argc >= 2 && argv[1][0] != '-') return analyze_text_logs(argc, argv);
  std::fprintf(stderr,
               "usage: analyze_logs --export-archive <file> | --archive <file> "
               "| <node.log> ...\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const ContractViolation& e) {  // DecodeError included
    std::fprintf(stderr, "analyze_logs: %s\n", e.what());
    return 1;
  }
}
