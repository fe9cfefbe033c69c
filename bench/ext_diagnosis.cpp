// Extension: automatic node diagnosis, validated against ground truth.
//
// Section III-H diagnoses the three loud nodes by inspection; the
// classifier does it mechanically from each node's fault record, and the
// simulator's ground-truth mechanisms grade the answer.  The point: an
// operator does not need a year of hindsight - the address/pattern/raw-log
// signature identifies the right repair (retire a page, replace a DIMM,
// replace the node) from the record alone.
#include <algorithm>
#include <cstdio>
#include <map>

#include "analysis/diagnosis.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "util/campaign_cache.hpp"

int main() {
  using namespace unp;
  bench::print_header(
      "Extension - automatic node diagnosis vs ground truth",
      "the Section III-H readings (component failure, weak cells) recovered "
      "mechanically from each node's fault record");

  const bench::CampaignData& data = bench::default_data();
  const auto fleet = analysis::diagnose_fleet(data.extraction.faults);

  // Ground truth: dominant mechanism per node, re-derived from the default
  // campaign's plan (the cache stores only the record stream).
  ThreadPool pool(sim::default_campaign_threads());
  const sim::CampaignPlan plan =
      sim::plan_campaign(sim::CampaignConfig{}, &pool);
  std::map<int, std::map<faults::Mechanism, std::uint64_t>> truth;
  for (const auto& ev : plan.ground_truth) {
    ++truth[cluster::node_index(ev.node)][ev.mechanism];
  }
  auto dominant_mechanism = [&](cluster::NodeId node) -> const char* {
    const auto it = truth.find(cluster::node_index(node));
    if (it == truth.end()) return "-";
    const faults::Mechanism best =
        std::max_element(it->second.begin(), it->second.end(),
                         [](const auto& a, const auto& b) {
                           return a.second < b.second;
                         })
            ->first;
    return faults::to_string(best);
  };

  TextTable table({"Node", "Faults", "Addresses", "Patterns", "Diagnosis",
                   "Recommendation", "Ground truth"});
  int shown = 0;
  for (const auto& d : fleet) {
    if (d.faults < 3 && shown >= 12) break;
    table.add_row({cluster::node_name(d.node), format_count(d.faults),
                   format_count(d.distinct_addresses),
                   format_count(d.distinct_patterns),
                   analysis::to_string(d.condition), d.recommendation(),
                   dominant_mechanism(d.node)});
    if (++shown >= 12) break;
  }
  std::printf("%s\n", table.render().c_str());

  // Grade the classifier on the nodes whose mechanism is unambiguous.
  int graded = 0, correct = 0;
  for (const auto& d : fleet) {
    const std::string truth_name = dominant_mechanism(d.node);
    if (truth_name == "degrading-component") {
      ++graded;
      correct += d.condition == analysis::NodeCondition::kComponentFailure;
    } else if (truth_name == "weak-bit") {
      ++graded;
      correct += d.condition == analysis::NodeCondition::kWeakCell;
    } else if (truth_name == "background-transient" ||
               truth_name == "neutron-event" || truth_name == "isolated-sdc") {
      ++graded;
      correct += d.condition == analysis::NodeCondition::kSporadic ||
                 d.condition == analysis::NodeCondition::kHealthy;
    }
  }
  std::printf("classifier accuracy on mechanism-labelled nodes: %d / %d\n",
              correct, graded);
  std::printf("(the removed pathological node never reaches this table - the "
              "extraction filter already pulled it, as the admins did)\n");
  return 0;
}
