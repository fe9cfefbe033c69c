// Section III-C/D: what ECC would have seen, and the isolation of the
// undetectable errors.
//
// Paper shape: 76 double-bit errors would be detected by SECDED; 9 errors
// beyond 2 bits could pass undetected (SDC); the seven >3-bit errors all
// struck nodes with no other error during the whole study, uncorrelated
// with anything else; 4 affected nodes sit near the overheating SoC-12
// column; 6 of them predate the temperature logging.
#include <cstdio>

#include "common/table.hpp"
#include "resilience/ecc_whatif.hpp"
#include "util/campaign_cache.hpp"

int main() {
  using namespace unp;
  bench::print_header(
      "SDC analysis - ECC what-if and isolation (Sections III-C/D)",
      "76 doubles detected by SECDED; 9 wider faults can be silent; the "
      "seven >3-bit faults hit otherwise error-free nodes, uncorrelated");

  const bench::CampaignData& data = bench::default_data();
  const resilience::EccWhatIf whatif =
      resilience::ecc_what_if(data.extraction.faults);

  std::printf("multi-bit faults                 : %s (paper: 85)\n",
              format_count(whatif.multibit_faults).c_str());
  std::printf("double-bit faults                : %s (paper: 76)\n",
              format_count(whatif.double_bit_faults).c_str());
  std::printf("faults beyond SECDED guarantee   : %s (paper: 9)\n",
              format_count(whatif.beyond_secded_guarantee).c_str());

  TextTable table({"Scheme", "Corrected", "Detected", "Miscorrected",
                   "Undetected", "Silent total"});
  auto add_scheme = [&](const char* name, const ecc::PopulationResult& r) {
    const ecc::VerdictCounts c = r.total();
    table.add_row({name, format_count(c.correct), format_count(c.detect_only),
                   format_count(c.miscorrect), format_count(c.sdc),
                   format_count(c.silent())});
  };
  add_scheme("SECDED(72,64)", whatif.secded);
  add_scheme("Chipkill SSC-DSD", whatif.chipkill);
  std::printf("\n%s\n", table.render().c_str());

  const auto reports =
      resilience::sdc_isolation_report(data.extraction.faults, /*min_bits=*/4);
  std::printf("isolated >3-bit faults (paper: 7, on 5 quiet nodes):\n");
  TextTable iso({"Node", "Date (UTC)", "Bits", "Expected", "Corrupted",
                 "Ordinary faults same node", "Faults within 1h anywhere"});
  for (const auto& r : reports) {
    iso.add_row({cluster::node_name(r.fault.node),
                 format_iso8601(r.fault.first_seen).substr(0, 10),
                 std::to_string(r.fault.flipped_bits()),
                 format_hex32(r.fault.expected), format_hex32(r.fault.actual),
                 format_count(r.same_node_small_faults),
                 format_count(r.same_time_other_faults)});
  }
  std::printf("%s\n", iso.render().c_str());
  return 0;
}
