// campaign_explorer: rerun the study under different assumptions and watch
// what the analyses report - the "what if our machine were different" tool.
//
// Usage:
//   campaign_explorer [--seed <n>] [--months <n>] [--altitude <meters>]
//                     [--no-degrading] [--no-weak-bits] [--dump-node BB-SS]
//
// --export-csv writes the full figure bundle (CSV per figure) to a dir;
// --altitude places the cluster higher in the atmosphere (neutron flux
// scales exponentially); --no-degrading / --no-weak-bits remove the two
// pathological mechanisms, showing what the campaign would have looked
// like on a healthy fleet; --dump-node prints a node's raw log.
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/bitstats.hpp"
#include "analysis/export.hpp"
#include "analysis/grouping.hpp"
#include "analysis/metrics.hpp"
#include "analysis/regime.hpp"
#include "analysis/streaming_extractor.hpp"
#include "sim/campaign.hpp"
#include "telemetry/codec.hpp"
#include "telemetry/sink.hpp"

namespace {

/// Keeps the records of one node, for --dump-node.
class NodeLogCapture final : public unp::telemetry::RecordSink {
 public:
  explicit NodeLogCapture(unp::cluster::NodeId node) : node_(node) {}
  unp::telemetry::NodeLog log;

  void on_node_log(unp::telemetry::EncodedNodeLog& enc) override {
    if (enc.node() == node_) log = enc.log();
  }
  void on_start(const unp::telemetry::StartRecord&) override {}
  void on_end(const unp::telemetry::EndRecord&) override {}
  void on_alloc_fail(const unp::telemetry::AllocFailRecord&) override {}
  void on_error_run(const unp::telemetry::ErrorRun&) override {}

 private:
  unp::cluster::NodeId node_;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace unp;

  sim::CampaignConfig config;
  int months = 13;
  double altitude_m = env::kBarcelona.altitude_m;
  std::string dump_node;
  std::string export_dir;

  for (int i = 1; i < argc; ++i) {
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--seed") == 0) {
      config.seed = std::strtoull(next("--seed"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--months") == 0) {
      months = std::atoi(next("--months"));
    } else if (std::strcmp(argv[i], "--altitude") == 0) {
      altitude_m = std::atof(next("--altitude"));
    } else if (std::strcmp(argv[i], "--no-degrading") == 0) {
      config.faults.enable_degrading = false;
      config.faults.neutron.repeat_site_nodes.clear();
    } else if (std::strcmp(argv[i], "--no-weak-bits") == 0) {
      config.faults.enable_weak_bits = false;
    } else if (std::strcmp(argv[i], "--dump-node") == 0) {
      dump_node = next("--dump-node");
    } else if (std::strcmp(argv[i], "--export-csv") == 0) {
      export_dir = next("--export-csv");
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
  }

  if (months < 13) {
    config.window.end =
        config.window.start + static_cast<TimePoint>(months) * 30 * kSecondsPerDay;
  }
  if (altitude_m != env::kBarcelona.altitude_m) {
    env::NeutronFluxModel::Config flux = config.faults.neutron.flux.config();
    flux.site.altitude_m = altitude_m;
    config.faults.neutron.flux = env::NeutronFluxModel(flux);
    std::printf("altitude %.0f m -> neutron flux x%.2f\n", altitude_m,
                config.faults.neutron.flux.altitude_factor());
  }

  std::printf("running campaign: seed=%llu months=%d ...\n",
              static_cast<unsigned long long>(config.seed), months);
  analysis::StreamingExtractor extractor;
  analysis::ScanProfileSink scan;
  std::vector<telemetry::RecordSink*> sinks{&extractor, &scan};
  NodeLogCapture capture(dump_node.empty() ? cluster::NodeId{}
                                           : cluster::parse_node_name(dump_node));
  if (!dump_node.empty()) sinks.push_back(&capture);
  (void)sim::run_campaign_streaming(config, sinks,
                                    sim::default_campaign_threads());
  const analysis::ExtractionResult extraction = extractor.finish();

  if (!export_dir.empty()) {
    const int files =
        analysis::write_figure_bundle(export_dir, scan, extraction);
    std::printf("wrote %d CSV files to %s\n", files, export_dir.c_str());
  }

  if (!dump_node.empty()) {
    std::printf("---- raw log of node %s ----\n", dump_node.c_str());
    telemetry::write_node_log(std::cout, capture.log);
    return 0;
  }

  const analysis::HeadlineStats stats = analysis::headline_stats(
      scan.total_monitored_hours(), scan.total_terabyte_hours(),
      scan.monitored_nodes(), scan.window(), extraction);
  std::printf("\nnodes=%d  node-hours=%.0f  TB-h=%.0f\n", stats.monitored_nodes,
              stats.monitored_node_hours, stats.terabyte_hours);
  std::printf("raw logs=%llu  independent faults=%llu  cluster error every "
              "%.1f min\n",
              static_cast<unsigned long long>(stats.raw_logs),
              static_cast<unsigned long long>(stats.independent_faults),
              stats.cluster_mtbe_minutes);

  const analysis::DirectionStats dir = analysis::direction_stats(extraction.faults);
  const analysis::AdjacencyStats adj = analysis::adjacency_stats(extraction.faults);
  std::printf("1->0 flips: %.1f%%   multibit: %llu (consecutive %llu / "
              "spread %llu)\n",
              100.0 * dir.one_to_zero_fraction(),
              static_cast<unsigned long long>(adj.multibit_faults),
              static_cast<unsigned long long>(adj.consecutive),
              static_cast<unsigned long long>(adj.non_adjacent));

  const auto groups = analysis::group_simultaneous(extraction.faults);
  const analysis::CoOccurrence co = analysis::count_co_occurrence(groups);
  std::printf("simultaneous corruptions: %llu (widest %llu bits at once)\n",
              static_cast<unsigned long long>(co.simultaneous_corruptions),
              static_cast<unsigned long long>(co.max_bits_one_instant));

  const analysis::AutoRegime regimes = analysis::classify_regime_excluding_loudest(
      extraction.faults, scan.window());
  std::printf("regimes: %llu normal days (MTBF %.0f h), %llu degraded days "
              "(MTBF %.2f h)%s\n",
              static_cast<unsigned long long>(regimes.regime.normal_days),
              regimes.regime.normal_mtbf_hours,
              static_cast<unsigned long long>(regimes.regime.degraded_days),
              regimes.regime.degraded_mtbf_hours,
              regimes.excluded
                  ? (" [excluded " + cluster::node_name(*regimes.excluded) + "]").c_str()
                  : "");

  const analysis::HourOfDayProfile hours =
      analysis::hour_of_day_profile(extraction.faults);
  std::printf("multi-bit day/night ratio: %.2f\n",
              hours.day_night_ratio_multibit());
  return 0;
}
