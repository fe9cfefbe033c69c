#include "resilience/ecc_whatif.hpp"

#include <bit>
#include <cstdlib>

#include "ecc/registry.hpp"

namespace unp::resilience {

EccWhatIf ecc_what_if(const std::vector<analysis::FaultRecord>& faults) {
  std::vector<Word> masks;
  masks.reserve(faults.size());
  for (const auto& f : faults) masks.push_back(f.flip_mask());
  const ecc::MaskCensus census = ecc::mask_census(masks);

  EccWhatIf result;
  for (const ecc::MaskCount& entry : census) {
    result.parity.add(std::popcount(entry.mask) % 2 == 1
                          ? ecc::Verdict::kDetectOnly
                          : ecc::Verdict::kSdc,
                      entry.count);
  }
  result.secded =
      ecc::evaluate_population(*ecc::default_code("secded72"), census);
  result.chipkill =
      ecc::evaluate_population(*ecc::default_code("chipkill"), census);

  const auto in_class = [&](int flipped_bits) {
    return result.secded.by_class[static_cast<std::size_t>(
        flip_class_of(flipped_bits))].total();
  };
  result.double_bit_faults = in_class(2);
  result.multibit_faults = result.secded.faults - in_class(1);
  result.beyond_secded_guarantee =
      result.multibit_faults - result.double_bit_faults;
  return result;
}

std::vector<IsolationReport> sdc_isolation_report(
    const std::vector<analysis::FaultRecord>& faults, int min_bits,
    std::int64_t window_s) {
  std::vector<IsolationReport> reports;
  for (const auto& f : faults) {
    if (f.flipped_bits() < min_bits) continue;
    IsolationReport report;
    report.fault = f;
    for (const auto& other : faults) {
      if (&other == &f) continue;
      if (other.node == f.node) {
        ++report.same_node_other_faults;
        if (other.flipped_bits() < min_bits) ++report.same_node_small_faults;
      }
      if (std::llabs(other.first_seen - f.first_seen) <= window_s) {
        ++report.same_time_other_faults;
      }
    }
    reports.push_back(report);
  }
  return reports;
}

}  // namespace unp::resilience
