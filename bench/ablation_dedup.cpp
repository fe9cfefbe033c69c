// Ablation: the extraction merge window (DESIGN.md #3, Section II-C).
//
// The paper's accounting collapses consecutive re-logs of the same fault
// into one error.  The merge window controls what "consecutive" means:
// too short and a stuck cell inflates into thousands of phantom faults;
// too long and distinct weak-bit leak episodes fuse, hiding the recurrence
// the whole degraded-regime analysis is built on.
#include <cstdio>

#include "analysis/extraction.hpp"
#include "common/table.hpp"
#include "util/campaign_cache.hpp"

int main() {
  using namespace unp;
  bench::print_header(
      "Ablation - extraction merge window",
      "fault counts must be stable around the chosen window (300 s); "
      "degenerate windows multiply or fuse the weak-bit episodes");

  const bench::CampaignData& data = bench::default_data();

  TextTable table({"Merge window", "Independent faults", "Raw logs kept"});
  for (std::int64_t window_s : {0L, 60L, 150L, 300L, 900L, 3600L, 86400L}) {
    analysis::ExtractionConfig config;
    config.merge_window_s = window_s;
    const analysis::ExtractionResult result =
        analysis::extract_faults(data.archive, config);
    std::uint64_t raw = 0;
    for (const auto& f : result.faults) raw += f.raw_logs;
    table.add_row({std::to_string(window_s) + " s",
                   format_count(result.faults.size()), format_count(raw)});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("(the library default is 300 s; the campaign's scan pass is "
              "~75 s, so stuck-cell re-logs fuse while leak episodes minutes "
              "apart stay separate)\n");
  return 0;
}
