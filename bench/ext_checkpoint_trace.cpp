// Extension: trace-driven checkpoint/restart over the campaign's faults.
//
// Section III-I argues a job should shorten its checkpoint interval during
// degraded periods.  The first-order Young/Daly model says so analytically;
// here a full-machine capability job is simulated against the *actual*
// (bursty, regime-switching) fault timestamps, comparing a static interval
// tuned to the blended MTBF with a regime-adaptive one.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "analysis/regime.hpp"
#include "common/table.hpp"
#include "resilience/checkpoint.hpp"
#include "util/campaign_cache.hpp"

int main() {
  using namespace unp;
  bench::print_header(
      "Extension - trace-driven checkpointing (Section III-I)",
      "regime-adaptive intervals beat a static Young interval on the real "
      "bursty fault trace");

  const bench::CampaignData& data = bench::default_data();
  const CampaignWindow& window = data.archive.window();
  const analysis::AutoRegime regimes = analysis::classify_regime_excluding_loudest(
      data.extraction.faults, window);

  // A full-machine job: every fault (minus the replaced permanent node)
  // kills the running segment.
  std::vector<TimePoint> trace;
  for (const auto& f : data.extraction.faults) {
    if (regimes.excluded && f.node == *regimes.excluded) continue;
    trace.push_back(f.first_seen);
  }
  std::sort(trace.begin(), trace.end());

  resilience::TraceJobConfig config;
  config.start = window.start;
  config.work_hours = 2000.0;
  const resilience::TracePolicyComparison cmp =
      resilience::compare_checkpoint_traces(trace, regimes.regime, window,
                                            config);

  std::printf("fault trace size        : %zu faults\n", trace.size());
  std::printf("static interval         : %.2f h\n", cmp.static_interval_hours);
  std::printf("adaptive intervals      : %.2f h normal / %.2f h degraded\n\n",
              cmp.normal_interval_hours, cmp.degraded_interval_hours);

  TextTable table({"Policy", "Wall (h)", "Lost (h)", "Checkpointing (h)",
                   "Failures hit", "Efficiency"});
  auto add = [&](const char* name, const resilience::TraceJobOutcome& o) {
    table.add_row({name, format_fixed(o.wall_hours, 0),
                   format_fixed(o.lost_hours, 1),
                   format_fixed(o.checkpoint_hours, 1),
                   format_count(o.failures),
                   format_fixed(100.0 * o.efficiency(), 1) + "%"});
  };
  add("static (blended MTBF)", cmp.static_policy);
  add("regime-adaptive", cmp.adaptive_policy);
  std::printf("%s\n", table.render().c_str());

  std::printf("adaptive saves %.0f wall-hours on a %.0f-hour job\n",
              cmp.static_policy.wall_hours - cmp.adaptive_policy.wall_hours,
              config.work_hours);
  return 0;
}
