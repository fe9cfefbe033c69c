// Ablation: SECDED vs chipkill vs no protection (DESIGN.md #5).
//
// Replays every observed corruption through both decoders and reports what
// each protection level would have turned the campaign into - the paper's
// "what would a classical system have seen" lens, plus the related-work
// claim that chipkill beats SECDED because DRAM faults cluster in symbols.
#include <cstdio>

#include "common/table.hpp"
#include "resilience/ecc_whatif.hpp"
#include "util/campaign_cache.hpp"

int main() {
  using namespace unp;
  bench::print_header(
      "Ablation - protection scheme outcomes",
      "no-ECC: everything reaches software; SECDED corrects singles, "
      "detects doubles, can miss wider faults; chipkill corrects "
      "single-symbol clusters");

  const bench::CampaignData& data = bench::default_data();
  const resilience::EccWhatIf whatif =
      resilience::ecc_what_if(data.extraction.faults);
  const auto total = static_cast<double>(data.extraction.faults.size());
  const ecc::VerdictCounts secded = whatif.secded.total();
  const ecc::VerdictCounts chipkill = whatif.chipkill.total();

  TextTable table({"Scheme", "Reaches software", "Corrected", "Detected (crash)",
                   "Silent corruption"});
  table.add_row({"none (the prototype)", format_count(data.extraction.faults.size()),
                 "0", "0", format_count(data.extraction.faults.size())});
  auto add = [&](const char* name, const ecc::VerdictCounts& c) {
    table.add_row({name, format_count(c.silent()), format_count(c.correct),
                   format_count(c.detect_only), format_count(c.silent())});
  };
  add("parity (detect-only)", whatif.parity);
  add("SECDED(72,64)", secded);
  add("chipkill SSC-DSD", chipkill);
  std::printf("%s\n", table.render().c_str());

  std::printf("SECDED silent fraction   : %.4f%%\n",
              100.0 * static_cast<double>(secded.silent()) / total);
  std::printf("chipkill silent fraction : %.4f%%\n",
              100.0 * static_cast<double>(chipkill.silent()) / total);
  std::printf("reliability ratio        : %.1fx fewer silent+crash events "
              "under chipkill (related work: ~42x overall)\n",
              chipkill.silent() + chipkill.detect_only > 0
                  ? static_cast<double>(secded.silent() + secded.detect_only) /
                        static_cast<double>(chipkill.silent() +
                                            chipkill.detect_only)
                  : 0.0);
  return 0;
}
