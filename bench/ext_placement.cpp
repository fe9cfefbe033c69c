// Extension: history-aware job placement (Section III-H's proposal).
//
// ">99.9% of errors occurring in less than 1% of the nodes ... spatial
// correlation information can be added into the scheduler algorithm to
// avoid large high priority jobs running in nodes with a long history of
// failures."  We replay one synthetic job stream under random vs
// history-aware placement over the campaign's fault record.
#include <cstdio>

#include "common/table.hpp"
#include "resilience/placement.hpp"
#include "util/campaign_cache.hpp"

int main() {
  using namespace unp;
  bench::print_header(
      "Extension - history-aware job placement (Section III-H)",
      "avoiding the few loud nodes collapses the memory-error job-kill rate");

  const bench::CampaignData& data = bench::default_data();
  const CampaignWindow& window = data.archive.window();
  const cluster::Topology topology =
      sim::campaign_topology(sim::CampaignConfig{});
  const auto& fleet = topology.monitored_nodes();

  TextTable table({"Job size (nodes)", "Policy", "Jobs", "Killed", "Kill rate",
                   "Node-hours lost"});
  for (int size : {16, 64, 256}) {
    resilience::JobMix mix;
    mix.nodes_min = size;
    mix.nodes_max = size;
    const resilience::PlacementComparison cmp = resilience::compare_placements(
        data.extraction.faults, window, fleet, mix);
    auto add = [&](const char* policy, const resilience::PlacementOutcome& o) {
      table.add_row({std::to_string(size), policy, format_count(o.jobs),
                     format_count(o.failed_jobs),
                     format_fixed(100.0 * o.failure_rate(), 2) + "%",
                     format_fixed(o.node_hours_lost, 0)});
    };
    add("random", cmp.random);
    add("history-aware", cmp.history_aware);
  }
  std::printf("%s\n", table.render().c_str());
  return 0;
}
