#include "resilience/ecc_whatif.hpp"

#include <bit>
#include <cstdlib>

#include "common/thread_pool.hpp"
#include "ecc/registry.hpp"

namespace unp::resilience {

EccWhatIf ecc_what_if(const std::vector<analysis::FaultRecord>& faults) {
  std::vector<Word> masks;
  masks.reserve(faults.size());
  for (const auto& f : faults) masks.push_back(f.flip_mask());

  EccWhatIf result;
  for (const Word mask : masks) {
    if (mask == 0) continue;
    result.parity.add(std::popcount(mask) % 2 == 1 ? ecc::Verdict::kDetectOnly
                                                   : ecc::Verdict::kSdc);
  }

  // The engine's tallies are thread-count invariant; one worker suffices.
  ThreadPool pool(1);
  result.secded =
      ecc::evaluate_population(*ecc::make_code("secded72"), masks, pool);
  result.chipkill =
      ecc::evaluate_population(*ecc::make_code("chipkill"), masks, pool);

  const auto class_total = [&](ecc::PopulationClass c) {
    return result.secded.by_class[static_cast<std::size_t>(c)].total();
  };
  result.double_bit_faults = class_total(ecc::PopulationClass::kDoubleBit);
  result.beyond_secded_guarantee = class_total(ecc::PopulationClass::kFewBit) +
                                   class_total(ecc::PopulationClass::kManyBit);
  result.multibit_faults =
      result.double_bit_faults + result.beyond_secded_guarantee;
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
