// Extension: how fast must production scrubbing be?
//
// On a SECDED machine a fault only matters if a *second* fault lands in
// the same ECC word before the scrubber cleans it.  The uniform-Poisson
// model says that is astronomically rare at the fleet's background rate -
// but the campaign's faults are not uniform: weak bits re-leak into the
// same word for weeks and the degrading component re-strikes its address
// pool.  The trace replay shows the gap between the two answers.
#include <cstdio>

#include "analysis/metrics.hpp"
#include "common/table.hpp"
#include "resilience/scrubbing.hpp"
#include "util/campaign_cache.hpp"

int main() {
  using namespace unp;
  bench::print_header(
      "Extension - scrub-interval requirements (SECDED accumulation)",
      "uniform model: accumulation ~never; the real clustered trace "
      "accumulates at any practical interval - scrubbing cannot replace "
      "node replacement");

  const bench::CampaignData& data = bench::default_data();
  const analysis::HeadlineStats stats =
      analysis::headline_stats(data.archive, data.extraction);

  // Fleet-average single-bit rate per node-hour (dominated by the loud
  // nodes; that is the point).
  const double rate = static_cast<double>(stats.independent_faults) /
                      stats.monitored_node_hours;
  std::printf("fleet fault rate: %.2e faults per node-hour\n\n", rate);

  TextTable table({"Scrub interval", "Analytic acc./node-year (uniform)",
                   "Trace accumulations", "Distinct-bit (uncorrectable)"});
  const std::vector<double> intervals{1.0, 6.0, 24.0, 24.0 * 7, 24.0 * 30};
  const auto sweep =
      resilience::scrubbing_sweep(data.extraction.faults, intervals);
  for (std::size_t i = 0; i < intervals.size(); ++i) {
    resilience::ScrubbingConfig config;
    config.scrub_interval_h = intervals[i];
    const double analytic = resilience::analytic_accumulation_per_node_year(
        rate, cluster::kScannableBytes, config);
    char label[32];
    if (intervals[i] < 24.0) {
      std::snprintf(label, sizeof label, "%.0f h", intervals[i]);
    } else {
      std::snprintf(label, sizeof label, "%.0f d", intervals[i] / 24.0);
    }
    table.add_row({label, format_fixed(analytic, 9),
                   format_count(sweep[i].accumulations),
                   format_count(sweep[i].distinct_bit_accumulations)});
  }
  std::printf("%s\n", table.render().c_str());

  std::printf(
      "(uniform-model accumulations are ~1e-6/node-year even at monthly\n"
      " scrubbing, yet the trace accumulates thousands of same-word pairs:\n"
      " fault clustering - not average rate - sets the ECC failure budget,\n"
      " which is why the paper pushes quarantine/replacement over cleverer\n"
      " per-word protection)\n");
  return 0;
}
