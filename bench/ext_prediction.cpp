// Extension: scoring the paper's failure-prediction claim (Section III-I).
//
// "When the system starts to experience several failures in a short period
// of time, it is relatively simple to foresee future failures."  The
// sliding-window predictor flags node-days one day ahead; we sweep the
// history window and the trigger threshold and report precision / recall /
// forewarned-error fraction over the campaign (permanent node excluded,
// like every Section III-I analysis).
#include <cstdio>

#include "analysis/regime.hpp"
#include "common/table.hpp"
#include "resilience/prediction.hpp"
#include "util/campaign_cache.hpp"

int main() {
  using namespace unp;
  bench::print_header(
      "Extension - one-day-ahead failure prediction (Section III-I)",
      "bursty weak-bit episodes make next-day failures predictable from "
      "short error histories");

  const bench::CampaignData& data = bench::default_data();
  const CampaignWindow& window = data.archive.window();
  const analysis::AutoRegime regimes = analysis::classify_regime_excluding_loudest(
      data.extraction.faults, window);

  TextTable table({"History (days)", "Trigger >N", "Precision", "Recall", "F1",
                   "Forewarned errors", "Flagged node-days"});
  for (int history : {1, 3, 7}) {
    for (std::uint64_t trigger : {0u, 3u, 10u}) {
      resilience::PredictorConfig config;
      config.history_days = history;
      config.trigger_errors = trigger;
      if (regimes.excluded) config.excluded_nodes.push_back(*regimes.excluded);
      const resilience::PredictionEvaluation eval =
          resilience::evaluate_predictor(data.extraction.faults, window, config);
      table.add_row({std::to_string(history), std::to_string(trigger),
                     format_fixed(eval.precision(), 3),
                     format_fixed(eval.recall(), 3),
                     format_fixed(eval.f1(), 3),
                     format_fixed(100.0 * eval.forewarned_fraction(), 1) + "%",
                     format_count(eval.flagged_node_days)});
    }
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("(recall counts bad node-days seen coming; forewarned errors "
              "are the errors a scheduler could have dodged by vacating "
              "flagged nodes)\n");
  return 0;
}
